//! A client that keeps one TCP connection open for many requests gets
//! each reply at once. A reply split over several small writes leaves
//! the later ones to Nagle's algorithm, which holds them until the
//! client's delayed ACK of the earlier ones, about 40 ms per request.
//! The daemon writes each reply burst whole and sets `TCP_NODELAY`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use lobist_server::json::{escape, Json};
use lobist_server::proto::is_terminal_event;
use lobist_server::{client, Endpoint, Server, ServerConfig};

const DESIGN: &str = "input a b c d\n\
                      s1 = a + b @ 1\n\
                      s2 = c + d @ 2\n\
                      y = s1 * s2 @ 3\n\
                      output y\n";

/// Sends `line` on a kept-alive connection in one write and reads its
/// events up to the terminal one.
fn request(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Vec<String> {
    writer
        .write_all(format!("{line}\n").as_bytes())
        .expect("request sent");
    let mut events = Vec::new();
    loop {
        let mut event = String::new();
        assert!(
            reader.read_line(&mut event).expect("an event") > 0,
            "the daemon closed the connection: {events:?}"
        );
        let event = event.trim_end().to_owned();
        let terminal = is_terminal_event(&event);
        events.push(event);
        if terminal {
            return events;
        }
    }
}

/// `events` without their `id` and `wall_micros` fields: the only ones
/// that differ between two answers to the same request.
fn masked(events: &[String]) -> Vec<Json> {
    events
        .iter()
        .map(|event| match Json::parse(event).expect("an event parses") {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .filter(|(key, _)| key != "id" && key != "wall_micros")
                    .collect(),
            ),
            other => other,
        })
        .collect()
}

#[test]
fn a_kept_alive_tcp_connection_is_answered_without_delayed_acks() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.tcp_addr().expect("tcp enabled");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    let synth = format!(
        r#"{{"cmd":"synth","design":"{}","modules":"1+,1*"}}"#,
        escape(DESIGN)
    );
    let ping = r#"{"cmd":"ping"}"#.to_owned();
    let mut writer = TcpStream::connect(addr).expect("connect");
    writer
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("a read deadline");
    let mut reader = BufReader::new(writer.try_clone().expect("a reader"));
    let warm_up = request(&mut writer, &mut reader, &synth);
    assert!(warm_up[2].contains("\"cache\":\"fresh\""), "{warm_up:?}");

    let lines: Vec<&String> = [&ping; 10].into_iter().chain([&synth; 10]).collect();
    let start = Instant::now();
    let replies: Vec<Vec<String>> = lines
        .iter()
        .map(|line| request(&mut writer, &mut reader, line))
        .collect();
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(200),
        "10 pings and 10 cached synths on one connection took {took:?}"
    );

    // Each reply is the one a fresh connection gets.
    let endpoint = Endpoint::Tcp(addr.to_string());
    for (line, reply) in lines.iter().zip(&replies) {
        let fresh = client::submit(&endpoint, line).expect("a fresh submit");
        assert_eq!(masked(reply), masked(&fresh), "{line}");
    }
    assert!(
        replies[10][2].contains("\"cache\":\"memory\""),
        "{replies:?}"
    );

    handle.shutdown();
    drop((writer, reader));
    thread.join().expect("run thread").expect("clean shutdown");
}
