//! A long-lived server must not hold on to closed connections: every
//! `vex submit` or `STATUS` connection used to leave a cloned socket in
//! the server until drain, one file descriptor each, until `accept` hit
//! the fd limit. This test has its own binary, so no other test opens
//! descriptors in the process while it counts them.

#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::time::{Duration, Instant};
use vex_serve::proto::{read_frame, write_frame};
use vex_serve::{serve, ServeConfig};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn request(addr: &str, text: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, text).unwrap();
    read_frame(&mut s).unwrap().unwrap()
}

#[test]
fn closed_connections_release_their_descriptors() {
    let port_file = std::env::temp_dir().join(format!("vexs_fds_port_{}", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let cfg = ServeConfig {
        port_file: Some(port_file.display().to_string()),
        ..ServeConfig::default()
    };
    let server = std::thread::spawn(move || serve(&cfg, None));
    let addr = loop {
        match std::fs::read_to_string(&port_file) {
            Ok(a) if !a.is_empty() => break a,
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    };

    let start = open_fds();
    for _ in 0..200 {
        assert!(request(&addr, "STATUS").starts_with("tasks=0"));
    }
    // A handler drops its clone when it sees the client's EOF, which may
    // trail the client's close by a moment.
    let slack = 8;
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_fds() > start + slack {
        assert!(
            Instant::now() < deadline,
            "200 closed connections left {} descriptors open (started with {start})",
            open_fds()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    assert!(request(&addr, "STATUS").starts_with("tasks=0"));
    assert_eq!(request(&addr, "DRAIN"), "OK");
    server.join().unwrap().unwrap();
    std::fs::remove_file(&port_file).ok();
}
