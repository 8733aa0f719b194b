//! One launch per process. The in-process workloads run every launch in
//! a fresh child (this binary, re-executed with `--launch`), so each
//! launch starts from the same allocator and thread state and its peak
//! resident memory (`VmHWM`) is its own. The child prints its result as
//! one hex-encoded bincode line; its standard error passes through.

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::process::{Command, Stdio};

pub const FLAG: &str = "--launch";
const TAG: &str = "LAUNCH-RESULT ";

/// Run `livebench --launch <args>` and decode its result.
pub fn launch<T: DeserializeOwned>(args: &[String]) -> Result<T, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg(FLAG)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a launch: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(TAG))
        .ok_or_else(|| format!("launch process exited with {} and no result", out.status))?;
    let bytes = (0..line.len() / 2)
        .map(|i| u8::from_str_radix(&line[2 * i..2 * i + 2], 16))
        .collect::<Result<Vec<u8>, _>>()
        .map_err(|e| format!("launch result: {e}"))?;
    bincode::deserialize(&bytes).map_err(|e| format!("launch result: {e}"))
}

/// Child side: print the result line.
pub fn reply<T: Serialize>(value: &T) {
    let bytes = bincode::serialize(value).expect("launch result serializes");
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    println!("{TAG}{hex}");
}
