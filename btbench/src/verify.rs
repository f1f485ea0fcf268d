//! Output verification for the loopback workloads: what the clients
//! were told must be what the replicas committed.

use std::collections::{HashMap, HashSet};

use netstack::fnv1a64;
use rsm::{ClientReq, LogEntry, Op};

/// A put the service acknowledged as committed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AckedPut {
    pub client: u64,
    pub request: u64,
    pub key: Vec<u8>,
    /// [`fnv1a64`] of the value (4 KiB values are not kept).
    pub value_digest: u64,
}

impl AckedPut {
    /// The record of `req` once acknowledged; `None` unless it is a put.
    pub fn of(req: &ClientReq) -> Option<AckedPut> {
        match req {
            ClientReq::Propose {
                client,
                request,
                op: Op::Put { key, value },
            } => Some(AckedPut {
                client: *client,
                request: *request,
                key: key.clone(),
                value_digest: fnv1a64(value),
            }),
            _ => None,
        }
    }
}

/// A read the service answered: the key and the digest of the value it
/// returned (`None` for "unbound").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnsweredRead {
    pub key: Vec<u8>,
    pub value_digest: Option<u64>,
}

/// Every acknowledged put appears in the committed `log` exactly once,
/// with the key and value the client sent.
pub fn check_puts(log: &[LogEntry], acked: &[AckedPut]) -> Result<(), String> {
    let mut committed: HashMap<(u64, u64), (usize, &Op)> = HashMap::new();
    for cmd in log.iter().flat_map(|e| &e.commands) {
        let slot = committed
            .entry((cmd.client, cmd.request))
            .or_insert((0, &cmd.op));
        slot.0 += 1;
    }
    for put in acked {
        let id = format!("client {} request {}", put.client, put.request);
        match committed.get(&(put.client, put.request)) {
            None => return Err(format!("acknowledged put is not in the log: {id}")),
            Some((count, _)) if *count != 1 => {
                return Err(format!("put is in the log {count} times: {id}"));
            }
            Some((_, Op::Put { key, value }))
                if *key == put.key && fnv1a64(value) == put.value_digest => {}
            Some((_, op)) => return Err(format!("log holds a different op for {id}: {op:?}")),
        }
    }
    Ok(())
}

/// Every answered read returned a value some put in the committed `log`
/// wrote for that key. The workloads read pre-filled keys only and
/// never delete, so "unbound" is rejected too.
pub fn check_reads(log: &[LogEntry], reads: &[AnsweredRead]) -> Result<(), String> {
    let mut written: HashMap<&[u8], HashSet<u64>> = HashMap::new();
    for cmd in log.iter().flat_map(|e| &e.commands) {
        if let Op::Put { key, value } = &cmd.op {
            written.entry(key).or_default().insert(fnv1a64(value));
        }
    }
    for read in reads {
        let key = String::from_utf8_lossy(&read.key);
        let Some(digest) = read.value_digest else {
            return Err(format!("read of pre-filled key {key} returned unbound"));
        };
        if !written
            .get(read.key.as_slice())
            .is_some_and(|w| w.contains(&digest))
        {
            return Err(format!("read of {key} returned a value no put wrote"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm::Command;

    fn put(client: u64, request: u64, key: &[u8], value: &[u8]) -> Command {
        Command {
            client,
            request,
            op: Op::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            },
        }
    }

    fn acked(cmd: &Command) -> AckedPut {
        let Op::Put { key, value } = &cmd.op else {
            unreachable!()
        };
        AckedPut {
            client: cmd.client,
            request: cmd.request,
            key: key.clone(),
            value_digest: fnv1a64(value),
        }
    }

    fn log_of(batches: Vec<Vec<Command>>) -> Vec<LogEntry> {
        batches
            .into_iter()
            .enumerate()
            .map(|(slot, commands)| LogEntry {
                slot: slot as u64,
                winner: 0,
                commands,
            })
            .collect()
    }

    #[test]
    fn rejects_a_log_missing_an_acked_write() {
        let (a, b) = (put(1, 1, b"x", b"1"), put(2, 1, b"y", b"2"));
        let full = log_of(vec![vec![a.clone()], vec![], vec![b.clone()]]);
        assert_eq!(check_puts(&full, &[acked(&a), acked(&b)]), Ok(()));

        let missing = log_of(vec![vec![a.clone()], vec![]]);
        let err = check_puts(&missing, &[acked(&a), acked(&b)]).unwrap_err();
        assert!(err.contains("not in the log"), "{err}");
    }

    #[test]
    fn rejects_duplicates_and_altered_values() {
        let a = put(1, 1, b"x", b"1");
        let twice = log_of(vec![vec![a.clone()], vec![a.clone()]]);
        assert!(check_puts(&twice, &[acked(&a)])
            .unwrap_err()
            .contains("2 times"));

        let altered = log_of(vec![vec![put(1, 1, b"x", b"other")]]);
        assert!(check_puts(&altered, &[acked(&a)])
            .unwrap_err()
            .contains("different op"));
    }

    #[test]
    fn reads_must_return_a_written_value() {
        let log = log_of(vec![vec![put(1, 1, b"k", b"old"), put(1, 2, b"k", b"new")]]);
        let read = |value: Option<&[u8]>| AnsweredRead {
            key: b"k".to_vec(),
            value_digest: value.map(fnv1a64),
        };
        assert_eq!(
            check_reads(&log, &[read(Some(b"old")), read(Some(b"new"))]),
            Ok(())
        );
        assert!(check_reads(&log, &[read(Some(b"never"))]).is_err());
        assert!(check_reads(&log, &[read(None)]).is_err());
    }
}
