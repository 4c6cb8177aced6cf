//! In-flight message representation and tag matching.

/// A message tag. User tags occupy the low half of the space; collective
/// operations use reserved tags namespaced by a per-communicator sequence
/// number so that back-to-back collectives can never cross-match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u64);

impl Tag {
    /// Highest user tag value.
    pub const MAX_USER: u64 = (1 << 32) - 1;

    /// A user tag.
    ///
    /// # Panics
    /// Panics if `t` exceeds [`Tag::MAX_USER`].
    pub fn user(t: u64) -> Tag {
        assert!(t <= Tag::MAX_USER, "user tags must be < 2^32");
        Tag(t)
    }

    /// Tag of the poison message a world sends every inbox when a rank
    /// panics (collective opcode `0xff`, which no collective uses).
    pub(crate) const TEARDOWN: Tag = Tag(u64::MAX);

    /// An internal collective tag: `opcode` identifies the collective,
    /// `seq` the per-communicator invocation counter.
    pub(crate) fn collective(opcode: u8, seq: u64) -> Tag {
        Tag((1 << 63) | ((opcode as u64) << 48) | (seq & 0xffff_ffff_ffff))
    }
}

impl From<u64> for Tag {
    fn from(t: u64) -> Tag {
        Tag::user(t)
    }
}

/// A message in flight.
#[derive(Debug)]
pub(crate) struct Message {
    /// Sender rank.
    pub src: usize,
    /// Tag.
    pub tag: Tag,
    /// Virtual completion time of the transfer at the sender.
    pub timestamp: f64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Message {
    /// The poison message sent to every inbox when rank `src` panicked,
    /// so that peers blocked on a receive fail instead of waiting forever.
    pub(crate) fn teardown(src: usize) -> Message {
        Message { src, tag: Tag::TEARDOWN, timestamp: 0.0, payload: Vec::new() }
    }

    /// Panics if this is a [`Message::teardown`] poison message.
    pub(crate) fn check_live(&self) {
        if self.tag == Tag::TEARDOWN {
            panic!("world torn down: rank {} panicked", self.src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_tags_ok() {
        assert_eq!(Tag::user(0), Tag(0));
        assert_eq!(Tag::user(Tag::MAX_USER).0, Tag::MAX_USER);
        assert_eq!(Tag::from(17u64), Tag(17));
    }

    #[test]
    #[should_panic(expected = "user tags")]
    fn oversized_user_tag_panics() {
        let _ = Tag::user(1 << 32);
    }

    #[test]
    fn collective_tags_disjoint_from_user() {
        let c = Tag::collective(3, 12);
        assert!(c.0 > Tag::MAX_USER);
        assert_ne!(Tag::collective(3, 12), Tag::collective(3, 13));
        assert_ne!(Tag::collective(2, 12), Tag::collective(3, 12));
    }
}
