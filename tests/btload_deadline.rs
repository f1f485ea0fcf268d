//! `btload` against a target that is down must fail within its op
//! deadline, naming the target, instead of retrying the connection
//! forever.

use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn btload_gives_up_on_a_dead_target() {
    if !netstack::sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this sandbox");
        return;
    }
    // Bind then drop: the port is free, so every connect is refused.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind an ephemeral port");
    let mut child = Command::new(env!("CARGO_BIN_EXE_btload"))
        .args(["--clients", "1", "--ops", "1", "--targets"])
        .arg(addr.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn btload");
    let give_up = Instant::now() + Duration::from_secs(15);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll btload") {
            break status;
        }
        if Instant::now() >= give_up {
            let _ = child.kill();
            let _ = child.wait();
            panic!("btload still running 15 s after its only target went down");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(!status.success(), "btload succeeded against a dead target");
    assert!(
        stderr.contains(&addr.to_string()),
        "the error must name the target: {stderr}"
    );
}
