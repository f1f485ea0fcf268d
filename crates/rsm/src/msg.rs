//! The replica-to-replica wire protocol: client injections, slot
//! announcements, and slot-tagged consensus traffic.

use bt_core::MultiMsg;
use simnet::{Wire, WireError, WireReader};

use crate::command::{Command, MAX_BATCH_WIRE};

/// One message of the multi-decree protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RsmMsg {
    /// Client service → its own replica: enqueue `commands` for
    /// announcement. Only ever accepted from the replica itself (the
    /// service hands it to the node's event loop as local input, which is
    /// journaled and replayed like any other delivery); a copy from any
    /// other process is dropped.
    Submit {
        /// The commands to enqueue, in submission order.
        commands: Vec<Command>,
    },
    /// Slot leader → all: the batch proposed for `slot`. The batch
    /// travels beside consensus (which orders only the slot's *winner*),
    /// so every replica learns what to apply once the slot decides.
    Announce {
        /// The slot being announced.
        slot: u64,
        /// The proposed batch (possibly empty, for gap-fill no-ops).
        commands: Vec<Command>,
    },
    /// Slot-tagged Figure 2 traffic for `slot`'s consensus instance.
    Decree {
        /// The slot whose instance this message belongs to.
        slot: u64,
        /// The bit-tagged inner message.
        msg: MultiMsg,
    },
}

impl Wire for RsmMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RsmMsg::Submit { commands } => {
                out.push(0);
                commands.encode(out);
            }
            RsmMsg::Announce { slot, commands } => {
                out.push(1);
                slot.encode(out);
                commands.encode(out);
            }
            RsmMsg::Decree { slot, msg } => {
                out.push(2);
                slot.encode(out);
                msg.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let offset = r.offset();
        match r.byte()? {
            0 => Ok(RsmMsg::Submit {
                commands: Vec::decode(r)?,
            }),
            1 => Ok(RsmMsg::Announce {
                slot: u64::decode(r)?,
                commands: Vec::decode(r)?,
            }),
            2 => Ok(RsmMsg::Decree {
                slot: u64::decode(r)?,
                msg: MultiMsg::decode(r)?,
            }),
            _ => Err(WireError::Invalid {
                what: "rsm message discriminant",
                offset,
            }),
        }
    }

    fn validate(&self, n: usize) -> bool {
        match self {
            RsmMsg::Submit { commands } | RsmMsg::Announce { commands, .. } => {
                commands.len() <= MAX_BATCH_WIRE && commands.iter().all(|c| c.validate(n))
            }
            RsmMsg::Decree { msg, .. } => msg.validate(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Op;
    use bt_core::MaliciousMsg;
    use simnet::{ProcessId, Value};

    fn cmd(client: u64, request: u64) -> Command {
        Command {
            client,
            request,
            op: Op::Put {
                key: vec![1, 2],
                value: vec![3],
            },
        }
    }

    #[test]
    fn round_trips() {
        let msgs = [
            RsmMsg::Submit {
                commands: vec![cmd(1, 1), cmd(2, 9)],
            },
            RsmMsg::Announce {
                slot: 17,
                commands: vec![cmd(1, 2)],
            },
            RsmMsg::Announce {
                slot: 0,
                commands: Vec::new(),
            },
            RsmMsg::Decree {
                slot: 3,
                msg: (1, MaliciousMsg::initial(ProcessId::new(2), Value::One, 0)),
            },
        ];
        for m in msgs {
            assert_eq!(RsmMsg::from_bytes(&m.to_bytes()), Ok(m));
        }
    }

    #[test]
    fn validate_guards_contents() {
        // A decree carrying an out-of-range process id is rejected.
        let bad = RsmMsg::Decree {
            slot: 0,
            msg: (0, MaliciousMsg::initial(ProcessId::new(9), Value::One, 0)),
        };
        assert!(!bad.validate(4));
        assert!(bad.validate(10));

        let fat = RsmMsg::Submit {
            commands: vec![cmd(1, 1); MAX_BATCH_WIRE + 1],
        };
        assert!(!fat.validate(4));
    }

    #[test]
    fn bad_discriminant_rejected() {
        assert!(RsmMsg::from_bytes(&[7]).is_err());
    }
}
