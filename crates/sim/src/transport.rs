//! The wire format of the async threads+channels runtime ([`crate::rt`]).
//!
//! Every delivery crosses its `mpsc` channel wrapped in a [`Frame`] whose
//! `u64` sequence number is checked on arrival ([`LinkGate`]), making the
//! per-edge FIFO guarantee of the execution model an enforced invariant
//! rather than an assumption.

use ule_graph::NodeId;

/// The typed header of one message on a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Position of this send on its directed link (0-based): the count of
    /// earlier sends on the same link, dropped ones included.
    pub seq: u64,
    /// Round in which the message was sent.
    pub send_round: u64,
    /// Round in which the message is delivered.
    pub deliver_at: u64,
    /// The sending node.
    pub src: NodeId,
    /// Emission index of the message within the sender's activation.
    pub emit: u64,
}

/// Receiver side of the FIFO link discipline: verifies that the frames
/// arriving on each port carry *monotonically increasing* sequence
/// numbers, i.e. that the transport really delivered the link's frames in
/// order. The async runtime routes every channel delivery through a gate;
/// a regression would mean the per-edge FIFO guarantee the execution model
/// rests on is broken. Gaps are legal: a sender under a fault adversary
/// consumes a sequence number for every send, including sends the
/// adversary drops in flight — a dropped frame simply never arrives.
#[derive(Debug)]
pub struct LinkGate {
    expect: Vec<u64>,
}

impl LinkGate {
    /// A gate for a node with `degree` ports.
    pub fn new(degree: usize) -> Self {
        LinkGate {
            expect: vec![0; degree],
        }
    }

    /// Accepts one frame from `port`.
    ///
    /// # Panics
    ///
    /// Panics on a sequence regression (a transport bug: a frame arriving
    /// after a higher-numbered frame on the same port) or an out-of-range
    /// port.
    pub fn accept(&mut self, port: usize, frame: &Frame) {
        assert!(
            frame.seq >= self.expect[port],
            "out-of-order frame on port {port}: got {}, expected at least {}",
            frame.seq,
            self.expect[port]
        );
        self.expect[port] = frame.seq + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seq: u64) -> Frame {
        Frame {
            seq,
            send_round: 0,
            deliver_at: 1,
            src: 0,
            emit: 0,
        }
    }

    #[test]
    fn link_seq_and_gate_enforce_fifo() {
        let mut gate = LinkGate::new(2);
        for i in 0..5u64 {
            gate.accept(1, &frame(i));
        }
        // The other port has its own, independent expectation.
        gate.accept(0, &frame(0));
    }

    #[test]
    fn link_gate_tolerates_gaps_from_dropped_frames() {
        // An adversary that drops sends still consumes sequence numbers at
        // the sender, so the receiver legitimately sees gaps.
        let mut gate = LinkGate::new(1);
        gate.accept(0, &frame(3));
        gate.accept(0, &frame(4));
    }

    #[test]
    #[should_panic(expected = "out-of-order frame on port 0: got 0, expected at least 4")]
    fn link_gate_rejects_sequence_regressions() {
        let mut gate = LinkGate::new(1);
        gate.accept(0, &frame(3));
        gate.accept(0, &frame(0));
    }

    #[test]
    fn sequence_numbers_do_not_truncate_at_the_u32_boundary() {
        // Sequence numbers are the full u64 per-link send count: a link
        // past 2^32 sends keeps distinct, ordered numbers.
        let mut gate = LinkGate::new(1);
        gate.accept(0, &frame(u64::from(u32::MAX)));
        gate.accept(0, &frame(1 << 32));
        assert_eq!(gate.expect[0], (1 << 32) + 1);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn wrapped_seq_zero_at_the_boundary_is_rejected() {
        // A sequence number wrapped to 0 past the u32 boundary is a
        // regression, not a fresh link.
        let mut gate = LinkGate::new(1);
        gate.accept(0, &frame(1 << 32));
        gate.accept(0, &frame(0));
    }
}
