//! Length-prefixed binary wire frames for [`AthenaMsg`].
//!
//! The vendored `serde` is a trait-only stub (the workspace builds with no
//! registry access), so the codec is hand-rolled. The format is explicit
//! and self-delimiting:
//!
//! ```text
//! frame   := magic("DN") version(u8=1) kind(u8) payload_len(u32 BE) payload
//! payload := variant fields, in declaration order
//! ```
//!
//! Primitives: integers are big-endian; `bool` is one byte (0/1); strings
//! are `u32` length + UTF-8 bytes; a [`Name`] is a `u32` component count +
//! component strings (names and labels travel as *strings*, never as
//! interned ids — the interning tables are process-local, so decoding
//! interns each one); `Option<T>` is a
//! one-byte tag + `T`; times are `u64` microseconds.
//!
//! Decoding is total: truncated, oversized, and malformed input returns a
//! typed [`FrameError`], never a panic — the TCP reader feeds this
//! whatever the peer socket produces. Element counts are never trusted
//! for pre-allocation; collections grow only as actual bytes are
//! consumed, so a forged `u32::MAX` count hits [`FrameError::Truncated`]
//! after at most [`MAX_PAYLOAD`] bytes of work.

use dde_core::{AthenaMsg, EvidenceObject, QueryId, RequestKind};
use dde_logic::dnf::{Dnf, Literal, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_naming::name::Name;
use dde_netsim::NodeId;

/// Frame header length: magic(2) + version(1) + kind(1) + payload_len(4).
pub const HEADER_LEN: usize = 8;

/// Maximum accepted payload length. Generous for Athena traffic (evidence
/// objects are represented by size, not pixels), tight enough that a
/// malicious length prefix cannot balloon reader memory.
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

const MAGIC: [u8; 2] = *b"DN";
const VERSION: u8 = 1;

const KIND_ANNOUNCE: u8 = 0;
const KIND_REQUEST: u8 = 1;
const KIND_DATA: u8 = 2;
const KIND_LABEL_SHARE: u8 = 3;
// Control plane (never seen by the protocol): health probing.
const KIND_HEALTH_PROBE: u8 = 4;
const KIND_HEALTH_REPORT: u8 = 5;

/// A malformed or unrepresentable wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes are not the `DN` magic.
    BadMagic {
        /// What arrived instead.
        found: [u8; 2],
    },
    /// Unknown protocol version.
    BadVersion {
        /// What arrived instead of the supported version.
        found: u8,
    },
    /// Unknown message-kind tag.
    UnknownKind {
        /// The unrecognized tag.
        found: u8,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The buffer ended before the declared content did.
    Truncated {
        /// Byte offset at which more input was needed.
        at: usize,
    },
    /// Bytes remain after the payload was fully decoded.
    Trailing {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A string field is not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the offending string.
        at: usize,
    },
    /// A boolean field held something other than 0 or 1.
    BadBool {
        /// The offending byte.
        found: u8,
    },
    /// An `Option` tag held something other than 0 or 1.
    BadOptionTag {
        /// The offending byte.
        found: u8,
    },
    /// A request-kind tag held something other than fetch/prefetch.
    BadRequestKind {
        /// The offending byte.
        found: u8,
    },
    /// The name components do not form a valid [`Name`].
    BadName {
        /// The naming layer's explanation.
        reason: String,
    },
    /// A decoded term contains contradictory literals (`x ∧ ¬x`).
    ConflictingTerm,
    /// A node id does not fit the wire's `u32` (encode-side only).
    NodeTooLarge {
        /// The unrepresentable node index.
        node: usize,
    },
    /// A control-plane frame (health probe/report) arrived where a
    /// protocol [`AthenaMsg`] was expected. Control frames are only valid
    /// on prober connections; see [`decode_any`].
    Control {
        /// The control frame's kind tag.
        found: u8,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (expected \"DN\")")
            }
            FrameError::BadVersion { found } => {
                write!(f, "unsupported frame version {found} (expected {VERSION})")
            }
            FrameError::UnknownKind { found } => write!(f, "unknown message kind {found}"),
            FrameError::Oversized { len, max } => {
                write!(f, "declared payload of {len} bytes exceeds cap of {max}")
            }
            FrameError::Truncated { at } => write!(f, "frame truncated at byte {at}"),
            FrameError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
            FrameError::BadUtf8 { at } => write!(f, "invalid utf-8 in string at byte {at}"),
            FrameError::BadBool { found } => write!(f, "invalid bool byte {found}"),
            FrameError::BadOptionTag { found } => write!(f, "invalid option tag {found}"),
            FrameError::BadRequestKind { found } => {
                write!(f, "invalid request-kind tag {found}")
            }
            FrameError::BadName { reason } => write!(f, "invalid name: {reason}"),
            FrameError::ConflictingTerm => write!(f, "term with contradictory literals"),
            FrameError::NodeTooLarge { node } => {
                write!(f, "node id {node} does not fit the wire format")
            }
            FrameError::Control { found } => {
                write!(f, "control frame (kind {found}) on the protocol path")
            }
        }
    }
}

impl std::error::Error for FrameError {}

// ---- Encoding ---------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn boolean(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn str(&mut self, s: &str) {
        // Strings in Athena traffic are short labels/components; a string
        // longer than u32::MAX bytes cannot arise from MAX_PAYLOAD-bounded
        // messages, and the payload cap is enforced at frame assembly.
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn node(&mut self, n: NodeId) -> Result<(), FrameError> {
        let id = u32::try_from(n.0).map_err(|_| FrameError::NodeTooLarge { node: n.0 })?;
        self.u32(id);
        Ok(())
    }
    fn time(&mut self, t: SimTime) {
        self.u64(t.as_micros());
    }
    fn duration(&mut self, d: SimDuration) {
        self.u64(d.as_micros());
    }
    fn label(&mut self, l: &Label) {
        self.str(l.as_str());
    }
    fn name(&mut self, n: &Name) {
        self.u32(n.len() as u32);
        for c in n.component_strs() {
            self.str(c);
        }
    }
    fn opt_node(&mut self, n: Option<NodeId>) -> Result<(), FrameError> {
        match n {
            None => self.u8(0),
            Some(n) => {
                self.u8(1);
                self.node(n)?;
            }
        }
        Ok(())
    }
    fn opt_qid(&mut self, q: Option<QueryId>) {
        match q {
            None => self.u8(0),
            Some(q) => {
                self.u8(1);
                self.u64(q.0);
            }
        }
    }
}

/// Encodes `msg` into one complete wire frame (header + payload).
///
/// Fails only when the message is unrepresentable on the wire: a node id
/// beyond `u32`, or a payload beyond [`MAX_PAYLOAD`].
pub fn encode(msg: &AthenaMsg) -> Result<Vec<u8>, FrameError> {
    let mut e = Enc { buf: Vec::new() };
    let kind = match msg {
        AthenaMsg::QueryAnnounce {
            qid,
            origin,
            expr,
            deadline_at,
        } => {
            e.u64(qid.0);
            e.node(*origin)?;
            e.time(*deadline_at);
            e.u32(expr.terms().len() as u32);
            for term in expr.terms() {
                e.u32(term.len() as u32);
                for lit in term.literals() {
                    e.boolean(lit.is_negated());
                    e.label(lit.label());
                }
            }
            KIND_ANNOUNCE
        }
        AthenaMsg::Request {
            name,
            wanted,
            qid,
            origin,
            kind,
        } => {
            e.u64(qid.0);
            e.node(*origin)?;
            e.u8(match kind {
                RequestKind::Fetch => 0,
                RequestKind::Prefetch => 1,
            });
            e.name(name);
            e.u32(wanted.len() as u32);
            for l in wanted {
                e.label(l);
            }
            KIND_REQUEST
        }
        AthenaMsg::Data {
            object,
            push_to,
            for_query,
        } => {
            e.name(&object.name);
            e.u32(object.covers.len() as u32);
            for l in &object.covers {
                e.label(l);
            }
            e.u64(object.size);
            e.node(object.source)?;
            e.time(object.sampled_at);
            e.duration(object.validity);
            e.opt_node(*push_to)?;
            e.opt_qid(*for_query);
            KIND_DATA
        }
        AthenaMsg::LabelShare {
            label,
            value,
            sampled_at,
            validity,
            annotator,
            based_on,
            for_query,
        } => {
            e.label(label);
            e.boolean(*value);
            e.time(*sampled_at);
            e.duration(*validity);
            e.node(*annotator)?;
            e.name(based_on);
            e.opt_qid(*for_query);
            KIND_LABEL_SHARE
        }
    };
    frame(kind, &e.buf)
}

/// Prefixes `payload` with the header for `kind`: one complete wire frame.
fn frame(kind: u8, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(FrameError::Oversized {
            len: payload.len(),
            max: MAX_PAYLOAD,
        });
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

// ---- Decoding ---------------------------------------------------------

struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        // `checked_add` guards the offset arithmetic against forged
        // lengths near usize::MAX.
        let end = self
            .pos
            .checked_add(n)
            .ok_or(FrameError::Truncated { at: self.pos })?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated { at: self.pos });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn boolean(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            found => Err(FrameError::BadBool { found }),
        }
    }
    fn str(&mut self) -> Result<&'a str, FrameError> {
        let len = self.u32()? as usize;
        let at = self.pos;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| FrameError::BadUtf8 { at })
    }
    fn node(&mut self) -> Result<NodeId, FrameError> {
        Ok(NodeId(self.u32()? as usize))
    }
    fn time(&mut self) -> Result<SimTime, FrameError> {
        Ok(SimTime::from_micros(self.u64()?))
    }
    fn duration(&mut self) -> Result<SimDuration, FrameError> {
        Ok(SimDuration::from_micros(self.u64()?))
    }
    fn label(&mut self) -> Result<Label, FrameError> {
        Ok(Label::new(self.str()?))
    }
    fn name(&mut self) -> Result<Name, FrameError> {
        let count = self.u32()? as usize;
        let mut components = Vec::new();
        for _ in 0..count {
            components.push(self.str()?.to_owned());
        }
        Name::from_components(components).map_err(|e| FrameError::BadName {
            reason: e.to_string(),
        })
    }
    fn opt_node(&mut self) -> Result<Option<NodeId>, FrameError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.node()?)),
            found => Err(FrameError::BadOptionTag { found }),
        }
    }
    fn opt_qid(&mut self) -> Result<Option<QueryId>, FrameError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(QueryId(self.u64()?))),
            found => Err(FrameError::BadOptionTag { found }),
        }
    }
}

/// Validates a frame header and returns the declared payload length.
///
/// The TCP reader calls this on the first [`HEADER_LEN`] bytes of each
/// frame to know how much more to read — and to reject garbage before
/// buffering anything.
pub fn payload_len(header: &[u8; HEADER_LEN]) -> Result<usize, FrameError> {
    if header[0..2] != MAGIC {
        return Err(FrameError::BadMagic {
            found: [header[0], header[1]],
        });
    }
    if header[2] != VERSION {
        return Err(FrameError::BadVersion { found: header[2] });
    }
    if header[3] > KIND_HEALTH_REPORT {
        return Err(FrameError::UnknownKind { found: header[3] });
    }
    let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    Ok(len)
}

/// A control-plane message: health probing between the cluster
/// coordinator and a node's transport. Control frames share the `DN`
/// frame format with the protocol but are answered *below* the
/// [`Transport`](crate::transport::Transport) handler seam — the Athena
/// protocol never sees them, so the DES backend (which has no sockets)
/// is untouched by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMsg {
    /// A liveness/readiness poll. `seq` is echoed in the report so the
    /// prober can match replies to requests.
    HealthProbe {
        /// Caller-chosen sequence number, echoed back verbatim.
        seq: u64,
    },
    /// A node's answer to a [`ControlMsg::HealthProbe`].
    HealthReport(crate::health::HealthReport),
}

/// Any decodable wire frame: a protocol message or a control message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// An Athena protocol message (kinds 0–3).
    Protocol(AthenaMsg),
    /// A control-plane message (kinds 4–5).
    Control(ControlMsg),
}

/// Encodes a control message into one complete wire frame.
pub fn encode_control(msg: &ControlMsg) -> Result<Vec<u8>, FrameError> {
    let mut e = Enc { buf: Vec::new() };
    let kind = match msg {
        ControlMsg::HealthProbe { seq } => {
            e.u64(*seq);
            KIND_HEALTH_PROBE
        }
        ControlMsg::HealthReport(r) => {
            e.u64(r.seq);
            e.u32(r.node);
            e.boolean(r.ready);
            e.u64(r.heartbeat_us);
            e.u64(r.dispatches);
            e.str(&r.metrics_json);
            KIND_HEALTH_REPORT
        }
    };
    frame(kind, &e.buf)
}

/// Decodes one complete wire frame (header + payload) back into an
/// [`AthenaMsg`]. Total: any malformed input yields a typed error.
/// Control frames (health probe/report) are rejected with
/// [`FrameError::Control`] — the protocol path must never observe them;
/// use [`decode_any`] where both planes are legal.
pub fn decode(frame: &[u8]) -> Result<AthenaMsg, FrameError> {
    match decode_any(frame)? {
        WireFrame::Protocol(msg) => Ok(msg),
        WireFrame::Control(c) => Err(FrameError::Control {
            found: match c {
                ControlMsg::HealthProbe { .. } => KIND_HEALTH_PROBE,
                ControlMsg::HealthReport(_) => KIND_HEALTH_REPORT,
            },
        }),
    }
}

/// Decodes one complete wire frame into either plane. Total: any
/// malformed input yields a typed error.
pub fn decode_any(frame: &[u8]) -> Result<WireFrame, FrameError> {
    if frame.len() < HEADER_LEN {
        return Err(FrameError::Truncated { at: frame.len() });
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&frame[..HEADER_LEN]);
    let len = payload_len(&header)?;
    let payload = &frame[HEADER_LEN..];
    if payload.len() < len {
        return Err(FrameError::Truncated {
            at: HEADER_LEN + payload.len(),
        });
    }
    if payload.len() > len {
        return Err(FrameError::Trailing {
            extra: payload.len() - len,
        });
    }
    let mut c = Cur {
        buf: payload,
        pos: 0,
    };
    let msg = match header[3] {
        KIND_HEALTH_PROBE => {
            let seq = c.u64()?;
            WireFrame::Control(ControlMsg::HealthProbe { seq })
        }
        KIND_HEALTH_REPORT => {
            let seq = c.u64()?;
            let node = c.u32()?;
            let ready = c.boolean()?;
            let heartbeat_us = c.u64()?;
            let dispatches = c.u64()?;
            let metrics_json = c.str()?.to_owned();
            WireFrame::Control(ControlMsg::HealthReport(crate::health::HealthReport {
                seq,
                node,
                ready,
                heartbeat_us,
                dispatches,
                metrics_json,
            }))
        }
        kind => WireFrame::Protocol(match kind {
            KIND_ANNOUNCE => {
                let qid = QueryId(c.u64()?);
                let origin = c.node()?;
                let deadline_at = c.time()?;
                let term_count = c.u32()? as usize;
                let mut terms = Vec::new();
                for _ in 0..term_count {
                    let lit_count = c.u32()? as usize;
                    let mut literals = Vec::new();
                    for _ in 0..lit_count {
                        let negated = c.boolean()?;
                        let label = c.label()?;
                        literals.push(if negated {
                            Literal::negative(label)
                        } else {
                            Literal::positive(label)
                        });
                    }
                    terms.push(
                        Term::try_from_literals(literals).ok_or(FrameError::ConflictingTerm)?,
                    );
                }
                AthenaMsg::QueryAnnounce {
                    qid,
                    origin,
                    expr: Dnf::from_terms(terms),
                    deadline_at,
                }
            }
            KIND_REQUEST => {
                let qid = QueryId(c.u64()?);
                let origin = c.node()?;
                let kind = match c.u8()? {
                    0 => RequestKind::Fetch,
                    1 => RequestKind::Prefetch,
                    found => return Err(FrameError::BadRequestKind { found }),
                };
                let name = c.name()?;
                let want_count = c.u32()? as usize;
                let mut wanted = Vec::new();
                for _ in 0..want_count {
                    wanted.push(c.label()?);
                }
                AthenaMsg::Request {
                    name,
                    wanted,
                    qid,
                    origin,
                    kind,
                }
            }
            KIND_DATA => {
                let name = c.name()?;
                let cover_count = c.u32()? as usize;
                let mut covers = Vec::new();
                for _ in 0..cover_count {
                    covers.push(c.label()?);
                }
                let size = c.u64()?;
                let source = c.node()?;
                let sampled_at = c.time()?;
                let validity = c.duration()?;
                let push_to = c.opt_node()?;
                let for_query = c.opt_qid()?;
                AthenaMsg::Data {
                    object: EvidenceObject {
                        name,
                        covers,
                        size,
                        source,
                        sampled_at,
                        validity,
                    },
                    push_to,
                    for_query,
                }
            }
            KIND_LABEL_SHARE => {
                let label = c.label()?;
                let value = c.boolean()?;
                let sampled_at = c.time()?;
                let validity = c.duration()?;
                let annotator = c.node()?;
                let based_on = c.name()?;
                let for_query = c.opt_qid()?;
                AthenaMsg::LabelShare {
                    label,
                    value,
                    sampled_at,
                    validity,
                    annotator,
                    based_on,
                    for_query,
                }
            }
            // payload_len() has already rejected unknown kinds.
            found => return Err(FrameError::UnknownKind { found }),
        }),
    };
    if c.pos != payload.len() {
        return Err(FrameError::Trailing {
            extra: payload.len() - c.pos,
        });
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> AthenaMsg {
        AthenaMsg::Request {
            name: "/city/cam/n1/x".parse().unwrap(),
            wanted: vec![Label::new("viable/a"), Label::new("viable/b")],
            qid: QueryId(42),
            origin: NodeId(3),
            kind: RequestKind::Fetch,
        }
    }

    #[test]
    fn round_trips_a_request() {
        let msg = sample_request();
        let frame = encode(&msg).unwrap();
        assert_eq!(decode(&frame).unwrap(), msg);
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let frame = encode(&sample_request()).unwrap();
        for cut in 0..frame.len() {
            assert!(
                decode(&frame[..cut]).is_err(),
                "decode accepted a frame cut to {cut} bytes"
            );
        }
    }

    #[test]
    fn rejects_oversized_declared_length() {
        let mut frame = encode(&sample_request()).unwrap();
        let huge = (MAX_PAYLOAD as u32 + 1).to_be_bytes();
        frame[4..8].copy_from_slice(&huge);
        assert!(matches!(decode(&frame), Err(FrameError::Oversized { .. })));
    }

    #[test]
    fn rejects_bad_magic_version_kind() {
        let good = encode(&sample_request()).unwrap();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode(&bad), Err(FrameError::BadMagic { .. })));
        let mut bad = good.clone();
        bad[2] = 9;
        assert!(matches!(decode(&bad), Err(FrameError::BadVersion { .. })));
        let mut bad = good.clone();
        bad[3] = 200;
        assert!(matches!(decode(&bad), Err(FrameError::UnknownKind { .. })));
        let mut bad = good;
        bad.push(0);
        assert!(matches!(decode(&bad), Err(FrameError::Trailing { .. })));
    }

    #[test]
    fn control_frames_round_trip_and_stay_off_the_protocol_path() {
        let probe = ControlMsg::HealthProbe { seq: 7 };
        let frame = encode_control(&probe).unwrap();
        assert_eq!(decode_any(&frame).unwrap(), WireFrame::Control(probe));
        assert!(matches!(
            decode(&frame),
            Err(FrameError::Control { found: 4 })
        ));

        let report = ControlMsg::HealthReport(crate::health::HealthReport {
            seq: 7,
            node: 3,
            ready: true,
            heartbeat_us: 123,
            dispatches: 9,
            metrics_json: r#"{"counters":{}}"#.to_string(),
        });
        let frame = encode_control(&report).unwrap();
        assert_eq!(decode_any(&frame).unwrap(), WireFrame::Control(report));
        assert!(matches!(
            decode(&frame),
            Err(FrameError::Control { found: 5 })
        ));
    }

    #[test]
    fn decode_any_accepts_protocol_frames() {
        let msg = sample_request();
        let frame = encode(&msg).unwrap();
        assert_eq!(decode_any(&frame).unwrap(), WireFrame::Protocol(msg));
    }

    #[test]
    fn truncated_control_frames_are_rejected() {
        let frame = encode_control(&ControlMsg::HealthProbe { seq: 1 }).unwrap();
        for cut in 0..frame.len() {
            assert!(
                decode_any(&frame[..cut]).is_err(),
                "decode_any accepted a control frame cut to {cut} bytes"
            );
        }
    }

    #[test]
    fn forged_count_cannot_balloon_memory() {
        // A request whose wanted-count claims u32::MAX labels but whose
        // payload ends immediately must fail fast on truncation.
        let mut frame = encode(&AthenaMsg::Request {
            name: "/a/b".parse().unwrap(),
            wanted: vec![],
            qid: QueryId(1),
            origin: NodeId(0),
            kind: RequestKind::Fetch,
        })
        .unwrap();
        let n = frame.len();
        frame[n - 4..].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(decode(&frame), Err(FrameError::Truncated { .. })));
    }
}
