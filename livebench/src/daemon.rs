//! The `taflocd` child process: spawn on a fresh data dir, wait for its port,
//! read its peak RSS, shut it down. Dropping a [`Daemon`] always kills the
//! child and deletes its data dir, so a failed check or a panic leaves
//! nothing running and nothing on disk.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tafloc_serve::client::Client;
use tafloc_serve::protocol::{Request, Response, StatsReport};
use tafloc_serve::wire::WireVersion;

/// A running `taflocd` child and the directory it owns.
pub struct Daemon {
    child: Option<Child>,
    dir: PathBuf,
    /// Loopback address the daemon listens on.
    pub addr: std::net::SocketAddr,
}

/// The `taflocd` binary built next to this one.
fn daemon_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("current exe");
    exe.with_file_name(format!("taflocd{}", std::env::consts::EXE_SUFFIX))
}

impl Daemon {
    /// Spawns `taflocd` with `--data-dir` under `dir` (created fresh) and
    /// waits until it has written its port file.
    pub fn spawn(dir: &Path, extra: &[&str]) -> Daemon {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create run dir");
        let port_file = dir.join("port");
        let child = Command::new(daemon_binary())
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg("4")
            .arg("--data-dir")
            .arg(dir.join("data"))
            .arg("--port-file")
            .arg(&port_file)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn taflocd");
        let mut daemon = Daemon {
            child: Some(child),
            dir: dir.to_path_buf(),
            addr: "127.0.0.1:0".parse().unwrap(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    daemon.addr = ([127, 0, 0, 1], port).into();
                    return daemon;
                }
            }
            if let Some(status) = daemon.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                panic!("taflocd exited during start-up: {status}");
            }
            assert!(Instant::now() < deadline, "taflocd did not publish its port within 30 s");
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Opens a client connection speaking `version`, with a 10 s timeout.
    pub fn connect(&self, version: WireVersion) -> Client {
        let mut c = Client::connect_with(self.addr, version).expect("connect to taflocd");
        c.set_timeout(Some(Duration::from_secs(10))).expect("set timeout");
        c
    }

    /// The daemon's `stats` report.
    pub fn stats(&self) -> StatsReport {
        match self.connect(WireVersion::V2Binary).call_ok(&Request::Stats) {
            Ok(Response::Stats { report }) => report,
            other => panic!("stats failed: {other:?}"),
        }
    }

    /// Peak resident set of the child (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let pid = self.child.as_ref().expect("running").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Graceful shutdown: every client connection must be closed first, or
    /// the daemon waits for their read timeout. Falls back to a kill.
    pub fn shutdown(mut self) {
        if let Ok(mut c) = Client::connect_with(self.addr, WireVersion::V2Binary) {
            let _ = c.set_timeout(Some(Duration::from_secs(5)));
            let _ = c.call(&Request::Shutdown);
        }
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
