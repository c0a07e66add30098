//! The Visapult wire protocol: light and heavy payloads over striped sockets.
//!
//! Appendix A: per timestep each back-end PE sends the viewer a *light
//! payload* — "visualization metadata \[that\] consists of texture size, bytes
//! per pixel, and geometric information used to place the texture in a 3D
//! scene ... on the order of 256 bytes" — followed by a *heavy payload* of
//! "raw pixel data, as well as any geometric data", typically 0.25–1 MB of
//! texture plus tens of kilobytes of AMR grid lines.
//!
//! Messages are length-prefixed and carry a magic word and type byte so the
//! same encoding works over in-process channels (as `FramePayload` structs)
//! and over real TCP sockets (via [`write_frame`]/[`read_frame`]).

use crate::error::VisapultError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::sync::Arc;

/// Protocol magic word ("VSPL").
pub const MAGIC: u32 = 0x5653_504c;
/// Message type byte for a light payload.
pub const TYPE_LIGHT: u8 = 1;
/// Message type byte for a heavy payload.
pub const TYPE_HEAVY: u8 = 2;

/// Visualization metadata for one (PE, timestep): everything the viewer needs
/// to place the incoming texture in its scene graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LightPayload {
    /// Timestep number.
    pub frame: u32,
    /// Sending PE rank.
    pub rank: u32,
    /// Texture width in pixels.
    pub texture_width: u32,
    /// Texture height in pixels.
    pub texture_height: u32,
    /// Bytes per pixel of the heavy payload's texture (4 for RGBA8).
    pub bytes_per_pixel: u32,
    /// Centre of the quad the texture maps onto, in model coordinates.
    pub quad_center: [f32; 3],
    /// Half-extent vector along the texture's U direction.
    pub quad_u: [f32; 3],
    /// Half-extent vector along the texture's V direction.
    pub quad_v: [f32; 3],
    /// Number of line segments in the heavy payload's geometry block.
    pub geometry_segments: u32,
}

impl LightPayload {
    /// Encoded size in bytes (fixed): six `u32` fields plus three 3-vectors
    /// of `f32`.
    pub const ENCODED_LEN: usize = 6 * 4 + 9 * 4;
}

/// The visualization data itself: the rendered slab texture and any geometry.
///
/// Both members are shared: the texture is a refcounted [`Bytes`] buffer and
/// the geometry an `Arc`'d segment list, so a frame payload moves from the
/// back-end render loop through the per-PE channel into the viewer's scene
/// graph without its bytes ever being memcpy'd.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeavyPayload {
    /// Timestep number.
    pub frame: u32,
    /// Sending PE rank.
    pub rank: u32,
    /// RGBA8 texture bytes (`texture_width × texture_height × 4`), shared.
    pub texture_rgba8: Bytes,
    /// AMR grid line segments in model coordinates, shared.
    pub geometry: Arc<Vec<([f32; 3], [f32; 3])>>,
}

impl HeavyPayload {
    /// Total payload size in bytes (texture plus geometry).
    pub fn payload_bytes(&self) -> u64 {
        self.texture_rgba8.len() as u64 + (self.geometry.len() * 24) as u64
    }
}

/// One timestep's complete transmission from one PE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FramePayload {
    /// The metadata (sent first).
    pub light: LightPayload,
    /// The data (sent second).
    pub heavy: HeavyPayload,
}

impl FramePayload {
    /// Total bytes this frame contributes to the back-end → viewer link.
    pub fn wire_bytes(&self) -> u64 {
        LightPayload::ENCODED_LEN as u64 + self.heavy.payload_bytes()
    }

    /// Total *framed* bytes (message headers included) this frame occupies
    /// on the striped transport — always equal to what
    /// `StripeSender::send_frame` returns, so telemetry that logs before the
    /// send and counters summed after it agree.
    pub fn framed_wire_bytes(&self) -> u64 {
        // + the light message header (9), the heavy header segment, and the
        // geometry count word (4); the payload bytes are already counted.
        self.wire_bytes() + 9 + HEAVY_HEADER_LEN as u64 + 4
    }
}

fn put_vec3(buf: &mut BytesMut, v: [f32; 3]) {
    for c in v {
        buf.put_f32(c);
    }
}

fn get_vec3(buf: &mut impl Buf) -> [f32; 3] {
    [buf.get_f32(), buf.get_f32(), buf.get_f32()]
}

/// Encode a light payload (including the message header).
pub fn encode_light(p: &LightPayload) -> Vec<u8> {
    let mut body = BytesMut::with_capacity(LightPayload::ENCODED_LEN);
    body.put_u32(p.frame);
    body.put_u32(p.rank);
    body.put_u32(p.texture_width);
    body.put_u32(p.texture_height);
    body.put_u32(p.bytes_per_pixel);
    put_vec3(&mut body, p.quad_center);
    put_vec3(&mut body, p.quad_u);
    put_vec3(&mut body, p.quad_v);
    body.put_u32(p.geometry_segments);
    frame_message(TYPE_LIGHT, &body)
}

/// Encode a heavy payload (including the message header).
pub fn encode_heavy(p: &HeavyPayload) -> Vec<u8> {
    let mut body = BytesMut::with_capacity(16 + p.texture_rgba8.len() + p.geometry.len() * 24);
    body.put_u32(p.frame);
    body.put_u32(p.rank);
    body.put_u32(p.texture_rgba8.len() as u32);
    body.put_slice(&p.texture_rgba8);
    body.put_u32(p.geometry.len() as u32);
    for (a, b) in p.geometry.iter() {
        put_vec3(&mut body, *a);
        put_vec3(&mut body, *b);
    }
    frame_message(TYPE_HEAVY, &body)
}

fn frame_message(msg_type: u8, body: &[u8]) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(9 + body.len());
    out.put_u32(MAGIC);
    out.put_u8(msg_type);
    out.put_u32(body.len() as u32);
    out.put_slice(body);
    out.to_vec()
}

/// Decode a light payload from a full message (header included).
pub fn decode_light(msg: &[u8]) -> Result<LightPayload, VisapultError> {
    let (msg_type, mut body) = split_message(msg)?;
    if msg_type != TYPE_LIGHT {
        return Err(VisapultError::Protocol(format!(
            "expected light payload, got type {msg_type}"
        )));
    }
    if body.remaining() < LightPayload::ENCODED_LEN {
        return Err(VisapultError::Protocol("light payload truncated".to_string()));
    }
    Ok(LightPayload {
        frame: body.get_u32(),
        rank: body.get_u32(),
        texture_width: body.get_u32(),
        texture_height: body.get_u32(),
        bytes_per_pixel: body.get_u32(),
        quad_center: get_vec3(&mut body),
        quad_u: get_vec3(&mut body),
        quad_v: get_vec3(&mut body),
        geometry_segments: body.get_u32(),
    })
}

/// Decode a heavy payload from a full message (header included), copying the
/// message out of `msg`.  The checks are the heavy half of
/// [`FrameSegments::decode`]'s: one validation path for every heavy payload.
pub fn decode_heavy(msg: &[u8]) -> Result<HeavyPayload, VisapultError> {
    let (header, texture, geometry) = split_heavy(Bytes::from(msg.to_vec()))?;
    decode_heavy_segments(&header, texture, &geometry)
}

/// Slice a heavy message zero-copy into its header, texture and geometry
/// segments (the [`FrameSegments`] layout), bounds-checking every cut against
/// the message.  Bytes past the header's body length are not part of it.
fn split_heavy(msg: Bytes) -> Result<(Bytes, Bytes, Bytes), VisapultError> {
    if msg.len() < HEAVY_HEADER_LEN {
        return Err(VisapultError::Protocol("heavy payload truncated".to_string()));
    }
    // The body length follows magic + type; the texture length closes the
    // header, after frame and rank.
    let msg_end = 9 + (&msg[5..9]).get_u32() as usize;
    let tex_end = HEAVY_HEADER_LEN + (&msg[17..HEAVY_HEADER_LEN]).get_u32() as usize;
    if msg.len() < msg_end || tex_end > msg_end {
        return Err(VisapultError::Protocol("heavy payload texture truncated".to_string()));
    }
    Ok((
        msg.slice(..HEAVY_HEADER_LEN),
        msg.slice(HEAVY_HEADER_LEN..tex_end),
        msg.slice(tex_end..msg_end),
    ))
}

/// Decode a heavy payload from its three wire segments, validating every
/// length.  The texture passes through as-is.
fn decode_heavy_segments(header: &[u8], texture: Bytes, geometry: &[u8]) -> Result<HeavyPayload, VisapultError> {
    let mut h = header;
    if h.remaining() < HEAVY_HEADER_LEN {
        return Err(VisapultError::Protocol("heavy header truncated".to_string()));
    }
    let magic = h.get_u32();
    if magic != MAGIC {
        return Err(VisapultError::Protocol(format!("bad magic {magic:#x}")));
    }
    let msg_type = h.get_u8();
    if msg_type != TYPE_HEAVY {
        return Err(VisapultError::Protocol(format!(
            "expected heavy payload, got type {msg_type}"
        )));
    }
    let body_len = h.get_u32() as usize;
    let frame = h.get_u32();
    let rank = h.get_u32();
    let tex_len = h.get_u32() as usize;
    if tex_len != texture.len() {
        return Err(VisapultError::Protocol(format!(
            "texture segment is {} bytes but the header says {tex_len}",
            texture.len()
        )));
    }
    if body_len != 12 + tex_len + geometry.len() {
        return Err(VisapultError::Protocol("heavy body length mismatch".to_string()));
    }
    let mut g = geometry;
    if g.remaining() < 4 {
        return Err(VisapultError::Protocol(
            "heavy payload geometry count missing".to_string(),
        ));
    }
    let seg_count = g.get_u32() as usize;
    if seg_count.checked_mul(24) != Some(g.remaining()) {
        return Err(VisapultError::Protocol("heavy payload geometry truncated".to_string()));
    }
    let mut segments = Vec::with_capacity(seg_count);
    for _ in 0..seg_count {
        segments.push((get_vec3(&mut g), get_vec3(&mut g)));
    }
    Ok(HeavyPayload {
        frame,
        rank,
        texture_rgba8: texture,
        geometry: Arc::new(segments),
    })
}

fn split_message(msg: &[u8]) -> Result<(u8, &[u8]), VisapultError> {
    if msg.len() < 9 {
        return Err(VisapultError::Protocol("message shorter than header".to_string()));
    }
    let mut header = &msg[..9];
    let magic = header.get_u32();
    if magic != MAGIC {
        return Err(VisapultError::Protocol(format!("bad magic {magic:#x}")));
    }
    let msg_type = header.get_u8();
    let len = header.get_u32() as usize;
    if msg.len() < 9 + len {
        return Err(VisapultError::Protocol(format!(
            "message body truncated: expected {len} bytes, have {}",
            msg.len() - 9
        )));
    }
    Ok((msg_type, &msg[9..9 + len]))
}

/// One frame split into its wire segments, each a shared [`Bytes`] buffer —
/// the zero-copy encoding the striped transport ships.
///
/// Concatenated in order the four segments are byte-identical to
/// `encode_light(..) ‖ encode_heavy(..)`, but the texture segment is an O(1)
/// refcount bump of the payload's own buffer rather than a copy, so a frame
/// can be chunked onto stripes and reassembled on the far side without its
/// pixel data ever being memcpy'd.
#[derive(Debug, Clone)]
pub struct FrameSegments {
    /// The complete light-payload message (header + body).
    pub light: Bytes,
    /// The heavy message's header + fixed body prefix (magic, type, length,
    /// frame, rank, texture length): [`HEAVY_HEADER_LEN`] bytes.
    pub heavy_header: Bytes,
    /// The raw texture, shared with the payload (no copy).
    pub texture: Bytes,
    /// The geometry block: segment count + packed endpoints.
    pub geometry: Bytes,
}

/// Encoded size of [`FrameSegments::heavy_header`]: the 9-byte message header
/// plus frame, rank and texture length.
pub const HEAVY_HEADER_LEN: usize = 9 + 12;

impl FrameSegments {
    /// Encode a frame into its wire segments without copying the texture.
    pub fn encode(frame: &FramePayload) -> FrameSegments {
        let light = Bytes::from(encode_light(&frame.light));
        let heavy = &frame.heavy;
        let body_len = 12 + heavy.texture_rgba8.len() + 4 + heavy.geometry.len() * 24;
        let mut header = BytesMut::with_capacity(HEAVY_HEADER_LEN);
        header.put_u32(MAGIC);
        header.put_u8(TYPE_HEAVY);
        header.put_u32(body_len as u32);
        header.put_u32(heavy.frame);
        header.put_u32(heavy.rank);
        header.put_u32(heavy.texture_rgba8.len() as u32);
        let mut geometry = BytesMut::with_capacity(4 + heavy.geometry.len() * 24);
        geometry.put_u32(heavy.geometry.len() as u32);
        for (a, b) in heavy.geometry.iter() {
            put_vec3(&mut geometry, *a);
            put_vec3(&mut geometry, *b);
        }
        FrameSegments {
            light,
            heavy_header: header.freeze(),
            texture: heavy.texture_rgba8.clone(),
            geometry: geometry.freeze(),
        }
    }

    /// True when `other` views the exact same four buffer windows — the
    /// identity test a shared decode memo uses to prove two reassemblies are
    /// byte-for-byte the same frame without comparing the bytes.  Same
    /// allocation at the same window means same content (the buffers are
    /// immutable), so a hit is exact, never probabilistic.
    pub fn same_regions(&self, other: &FrameSegments) -> bool {
        self.light.ptr_eq(&other.light)
            && self.heavy_header.ptr_eq(&other.heavy_header)
            && self.texture.ptr_eq(&other.texture)
            && self.geometry.ptr_eq(&other.geometry)
    }

    /// Segment lengths in wire order.
    pub fn lens(&self) -> [usize; 4] {
        [
            self.light.len(),
            self.heavy_header.len(),
            self.texture.len(),
            self.geometry.len(),
        ]
    }

    /// Total framed bytes this frame puts on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.lens().iter().map(|l| *l as u64).sum()
    }

    /// Decode reassembled segments back into a frame, validating every length
    /// and the light/heavy identity fields against each other.  The texture
    /// passes through as-is — when the segments are rejoined slices of the
    /// sender's buffers this is a fully zero-copy decode.
    pub fn decode(self) -> Result<FramePayload, VisapultError> {
        let light = decode_light(&self.light)?;
        let heavy = decode_heavy_segments(&self.heavy_header, self.texture, &self.geometry)?;
        if heavy.frame != light.frame || heavy.rank != light.rank {
            return Err(VisapultError::Protocol(format!(
                "light ({}, {}) and heavy ({}, {}) payloads disagree on identity",
                light.frame, light.rank, heavy.frame, heavy.rank
            )));
        }
        let tex_len = heavy.texture_rgba8.len();
        if tex_len != light.texture_width as usize * light.texture_height as usize * light.bytes_per_pixel as usize {
            return Err(VisapultError::Protocol(format!(
                "texture is {tex_len} bytes but the metadata promises {}x{}x{}",
                light.texture_width, light.texture_height, light.bytes_per_pixel
            )));
        }
        if heavy.geometry.len() != light.geometry_segments as usize {
            return Err(VisapultError::Protocol(format!(
                "geometry has {} segments but the metadata promises {}",
                heavy.geometry.len(),
                light.geometry_segments
            )));
        }
        Ok(FramePayload { light, heavy })
    }
}

/// Write one frame (light then heavy, the order the paper prescribes) to a
/// byte stream — used when the back-end → viewer link is a real TCP socket.
pub fn write_frame<W: Write>(w: &mut W, frame: &FramePayload) -> Result<(), VisapultError> {
    w.write_all(&encode_light(&frame.light))?;
    w.write_all(&encode_heavy(&frame.heavy))?;
    w.flush()?;
    Ok(())
}

/// Read one complete message (header + body) from a byte stream into a
/// shared buffer, so decoders can slice it zero-copy.  The header's length
/// is untrusted: the body is read through `take(len)`, so the buffer grows
/// with the bytes that actually arrive, and a stream that ends short of the
/// claim is a typed protocol error.
fn read_message<R: Read>(r: &mut R) -> Result<Bytes, VisapultError> {
    let mut header = [0u8; 9];
    r.read_exact(&mut header)?;
    let mut h = &header[4..];
    let _type = h.get_u8();
    let len = h.get_u32() as u64;
    let mut msg = header.to_vec();
    let received = r.take(len).read_to_end(&mut msg)? as u64;
    if received < len {
        return Err(VisapultError::Protocol(format!(
            "message body truncated: header claims {len} bytes, stream ended after {received}"
        )));
    }
    Ok(Bytes::from(msg))
}

/// Read one frame (light then heavy) from a byte stream.  The heavy message
/// is sliced zero-copy into its wire segments and decoded by
/// [`FrameSegments::decode`], so a stream frame passes exactly the checks a
/// striped-transport frame does.
pub fn read_frame<R: Read>(r: &mut R) -> Result<FramePayload, VisapultError> {
    let light = read_message(r)?;
    let (heavy_header, texture, geometry) = split_heavy(read_message(r)?)?;
    FrameSegments {
        light,
        heavy_header,
        texture,
        geometry,
    }
    .decode()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> FramePayload {
        FramePayload {
            light: LightPayload {
                frame: 7,
                rank: 3,
                texture_width: 8,
                texture_height: 8,
                bytes_per_pixel: 4,
                quad_center: [1.0, 2.0, 3.0],
                quad_u: [4.0, 0.0, 0.0],
                quad_v: [0.0, 5.0, 0.0],
                geometry_segments: 2,
            },
            heavy: HeavyPayload {
                frame: 7,
                rank: 3,
                texture_rgba8: (0..8 * 8 * 4).map(|i| (i % 255) as u8).collect::<Vec<u8>>().into(),
                geometry: Arc::new(vec![([0.0; 3], [1.0, 1.0, 1.0]), ([2.0, 2.0, 2.0], [3.0, 3.0, 3.0])]),
            },
        }
    }

    #[test]
    fn light_payload_roundtrip_and_size() {
        let f = sample_frame();
        let enc = encode_light(&f.light);
        // The paper: metadata "is on the order of 256 bytes".
        assert!(enc.len() < 256, "light payload is {} bytes", enc.len());
        let dec = decode_light(&enc).unwrap();
        assert_eq!(dec, f.light);
    }

    #[test]
    fn heavy_payload_roundtrip() {
        let f = sample_frame();
        let enc = encode_heavy(&f.heavy);
        let dec = decode_heavy(&enc).unwrap();
        assert_eq!(dec, f.heavy);
        assert_eq!(f.heavy.payload_bytes(), (8 * 8 * 4 + 2 * 24) as u64);
    }

    #[test]
    fn read_frame_slices_the_texture_zero_copy() {
        let f = sample_frame();
        let mut wire = Vec::new();
        write_frame(&mut wire, &f).unwrap();
        let before = bytes::deep_copy_count();
        let back = read_frame(&mut std::io::Cursor::new(wire)).unwrap();
        assert_eq!(back, f);
        assert_eq!(
            bytes::deep_copy_count(),
            before,
            "a stream read must not copy the texture"
        );
    }

    #[test]
    fn segment_encode_matches_the_legacy_wire_format() {
        let f = sample_frame();
        let segments = FrameSegments::encode(&f);
        let mut legacy = encode_light(&f.light);
        legacy.extend_from_slice(&encode_heavy(&f.heavy));
        let mut concat = Vec::new();
        for seg in [
            &segments.light,
            &segments.heavy_header,
            &segments.texture,
            &segments.geometry,
        ] {
            concat.extend_from_slice(seg);
        }
        assert_eq!(concat, legacy, "segments concatenate to the legacy encoding");
        assert_eq!(segments.wire_bytes(), legacy.len() as u64);
        assert_eq!(segments.heavy_header.len(), HEAVY_HEADER_LEN);
        // The payload-side accessor agrees with the encoded reality, so
        // telemetry logged before a send matches the counters summed after.
        assert_eq!(f.framed_wire_bytes(), segments.wire_bytes());
    }

    #[test]
    fn segment_encode_shares_the_texture_and_decode_round_trips() {
        let f = sample_frame();
        let before = bytes::deep_copy_count();
        let segments = FrameSegments::encode(&f);
        assert!(
            segments.texture.ptr_eq(&f.heavy.texture_rgba8),
            "the texture segment must be the payload's own buffer"
        );
        let texture = segments.texture.clone();
        let back = segments.decode().unwrap();
        assert_eq!(back, f);
        assert!(back.heavy.texture_rgba8.ptr_eq(&texture), "decode passes it through");
        assert_eq!(
            bytes::deep_copy_count(),
            before,
            "segment encode/decode must never deep-copy"
        );
    }

    #[test]
    fn segment_decode_rejects_inconsistent_frames() {
        let f = sample_frame();
        // Texture shorter than the header promises.
        let mut s = FrameSegments::encode(&f);
        s.texture = s.texture.slice(..s.texture.len() - 4);
        assert!(s.decode().is_err());
        // Light and heavy disagreeing on identity.
        let mut wrong = f.clone();
        wrong.light.frame += 1;
        assert!(FrameSegments::encode(&wrong).decode().is_err());
        // Geometry truncated.
        let mut s = FrameSegments::encode(&f);
        s.geometry = s.geometry.slice(..s.geometry.len() - 1);
        assert!(s.decode().is_err());
        // Metadata promising a different texture size.
        let mut wrong = f.clone();
        wrong.light.texture_width += 1;
        assert!(FrameSegments::encode(&wrong).decode().is_err());
    }

    #[test]
    fn type_confusion_is_rejected() {
        let f = sample_frame();
        assert!(decode_light(&encode_heavy(&f.heavy)).is_err());
        assert!(decode_heavy(&encode_light(&f.light)).is_err());
    }

    #[test]
    fn corrupt_messages_are_rejected() {
        let f = sample_frame();
        let mut enc = encode_light(&f.light);
        enc[0] ^= 0xff; // break the magic
        assert!(decode_light(&enc).is_err());

        let enc = encode_heavy(&f.heavy);
        assert!(decode_heavy(&enc[..enc.len() - 10]).is_err());
        assert!(decode_light(&[1, 2, 3]).is_err());
    }

    #[test]
    fn stream_roundtrip_over_a_cursor() {
        let f = sample_frame();
        let mut buf = Vec::new();
        write_frame(&mut buf, &f).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_frame(&mut cursor).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn read_frame_rejects_a_frame_the_segment_decoder_rejects() {
        // Each inconsistency alone, then all three in one frame: light and
        // heavy disagreeing on identity, a texture shorter than the metadata
        // promises, and fewer geometry segments than promised.
        let consistent = FramePayload {
            light: LightPayload {
                texture_width: 2,
                texture_height: 2,
                geometry_segments: 0,
                ..sample_frame().light
            },
            heavy: HeavyPayload {
                texture_rgba8: vec![9u8; 2 * 2 * 4].into(),
                geometry: Arc::new(Vec::new()),
                ..sample_frame().heavy
            },
        };
        let mut identity = consistent.clone();
        (identity.heavy.frame, identity.heavy.rank) = (8, 9);
        let mut texture = consistent.clone();
        texture.heavy.texture_rgba8 = vec![1u8, 2, 3].into();
        let mut geometry = consistent.clone();
        geometry.light.geometry_segments = 5;
        let mut all = identity.clone();
        all.heavy.texture_rgba8 = texture.heavy.texture_rgba8.clone();
        all.light.geometry_segments = 5;
        let read = |f: &FramePayload| {
            let mut wire = Vec::new();
            write_frame(&mut wire, f).unwrap();
            read_frame(&mut std::io::Cursor::new(wire))
        };
        assert_eq!(read(&consistent).unwrap(), consistent);
        for bad in [&identity, &texture, &geometry, &all] {
            let result = read(bad);
            assert!(matches!(result, Err(VisapultError::Protocol(_))), "{result:?}");
            assert!(
                FrameSegments::encode(bad).decode().is_err(),
                "the segment decoder agrees"
            );
        }
    }

    #[test]
    fn a_length_claim_past_the_stream_end_is_a_typed_error() {
        // A header claiming u32::MAX body bytes, then five: the read must
        // fail as a protocol error after buffering what arrived, not size a
        // 4 GiB buffer from the claim.
        let mut wire = Vec::new();
        wire.put_u32(MAGIC);
        wire.put_u8(TYPE_HEAVY);
        wire.put_u32(u32::MAX);
        wire.put_slice(&[1, 2, 3, 4, 5]);
        let result = read_message(&mut std::io::Cursor::new(wire));
        assert!(
            matches!(&result, Err(VisapultError::Protocol(msg)) if msg.contains("truncated")),
            "{result:?}"
        );
    }

    #[test]
    fn an_overflowing_geometry_count_is_a_typed_error() {
        // An empty texture, then a segment count whose byte length (x24)
        // exceeds any buffer, followed by a few bytes.
        let mut body = Vec::new();
        body.put_u32(7); // frame
        body.put_u32(3); // rank
        body.put_u32(0); // texture length
        body.put_u32(u32::MAX); // segment count
        body.put_slice(&[0; 8]);
        let msg = frame_message(TYPE_HEAVY, &body);
        assert!(matches!(decode_heavy(&msg), Err(VisapultError::Protocol(_))));
        // The segment decoder's geometry check, on the same count (with the
        // heavy header's body length patched to match, so the count is what
        // gets judged).
        let mut segments = FrameSegments::encode(&sample_frame());
        let mut geometry = Vec::new();
        geometry.put_u32(u32::MAX);
        geometry.put_slice(&[0; 8]);
        let body_len = (12 + segments.texture.len() + geometry.len()) as u32;
        let mut header = segments.heavy_header.to_vec();
        header[5..9].copy_from_slice(&body_len.to_be_bytes());
        segments.heavy_header = Bytes::from(header);
        segments.geometry = Bytes::from(geometry);
        let result = segments.decode();
        assert!(
            matches!(&result, Err(VisapultError::Protocol(msg)) if msg.contains("geometry")),
            "{result:?}"
        );
    }

    #[test]
    fn stream_roundtrip_over_real_tcp() {
        let f = sample_frame();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn({
            let f = f.clone();
            move || {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                for _ in 0..3 {
                    write_frame(&mut stream, &f).unwrap();
                }
            }
        });
        let (mut conn, _) = listener.accept().unwrap();
        for _ in 0..3 {
            let got = read_frame(&mut conn).unwrap();
            assert_eq!(got, f);
        }
        sender.join().unwrap();
    }

    #[test]
    fn wire_bytes_counts_light_and_heavy() {
        let f = sample_frame();
        assert_eq!(
            f.wire_bytes(),
            LightPayload::ENCODED_LEN as u64 + f.heavy.payload_bytes()
        );
    }
}
