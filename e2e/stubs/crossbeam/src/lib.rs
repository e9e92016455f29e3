//! Empty offline stand-in: `seagull-core` declares `crossbeam` but uses nothing from it.
