//! Election protocol messages and their wire encoding.

/// Identifier of a protocol participant. The bully protocol elects the
/// highest live id.
pub type NodeId = u64;

/// Garcia-Molina bully protocol messages.
///
/// `Election` carries the initiator's **attempt epoch**, and `Answer`
/// echoes it. Without the epoch, an `Answer` written to slow storage by a
/// node that has since died can arrive during a *later* election attempt
/// and convince the initiator that a higher-ranked node is still alive —
/// with conservative timeouts this starves the election indefinitely.
/// (Messages in the paper's blackboard design can be arbitrarily stale:
/// they sit in DynamoDB until polled.)
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ElectionMsg {
    /// "I am holding an election; respond if you outrank me."
    Election {
        /// Initiator.
        from: NodeId,
        /// Initiator's attempt number.
        epoch: u64,
    },
    /// "I outrank you; stand down, I'll take it from here."
    Answer {
        /// Responder.
        from: NodeId,
        /// The attempt this answers.
        epoch: u64,
    },
    /// "I am the coordinator."
    Coordinator {
        /// The new coordinator.
        from: NodeId,
    },
    /// Leader liveness signal (socket transport only; the blackboard
    /// transport uses a shared cell instead).
    Heartbeat {
        /// The leader.
        from: NodeId,
    },
}

impl ElectionMsg {
    /// The sender baked into the message.
    pub fn from(&self) -> NodeId {
        match *self {
            ElectionMsg::Election { from, .. }
            | ElectionMsg::Answer { from, .. }
            | ElectionMsg::Coordinator { from }
            | ElectionMsg::Heartbeat { from } => from,
        }
    }

    /// Serialize (1 tag byte + 8 id bytes + 8 epoch bytes).
    pub fn encode(&self) -> Vec<u8> {
        let (tag, from, epoch) = match *self {
            ElectionMsg::Election { from, epoch } => (0u8, from, epoch),
            ElectionMsg::Answer { from, epoch } => (1, from, epoch),
            ElectionMsg::Coordinator { from } => (2, from, 0),
            ElectionMsg::Heartbeat { from } => (3, from, 0),
        };
        let mut buf = Vec::with_capacity(17);
        buf.push(tag);
        buf.extend_from_slice(&from.to_le_bytes());
        buf.extend_from_slice(&epoch.to_le_bytes());
        buf
    }

    /// Deserialize; `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<ElectionMsg> {
        if bytes.len() != 17 {
            return None;
        }
        let from = u64::from_le_bytes(bytes[1..9].try_into().ok()?);
        let epoch = u64::from_le_bytes(bytes[9..17].try_into().ok()?);
        Some(match bytes[0] {
            0 => ElectionMsg::Election { from, epoch },
            1 => ElectionMsg::Answer { from, epoch },
            2 => ElectionMsg::Coordinator { from },
            3 => ElectionMsg::Heartbeat { from },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        for msg in [
            ElectionMsg::Election { from: 0, epoch: 3 },
            ElectionMsg::Answer {
                from: 7,
                epoch: u64::MAX,
            },
            ElectionMsg::Coordinator { from: u64::MAX },
            ElectionMsg::Heartbeat { from: 42 },
        ] {
            let bytes = msg.encode();
            assert_eq!(ElectionMsg::decode(&bytes), Some(msg));
            assert_eq!(msg.from(), ElectionMsg::decode(&bytes).unwrap().from());
        }
    }

    #[test]
    fn malformed_rejected() {
        assert_eq!(ElectionMsg::decode(&[]), None);
        assert_eq!(ElectionMsg::decode(&[9; 17]), None);
        assert_eq!(ElectionMsg::decode(&[0; 9]), None);
        assert_eq!(ElectionMsg::decode(&[0; 18]), None);
    }
}
