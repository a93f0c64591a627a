package wire

import (
	"encoding/binary"
	"slices"
)

// Payload encodings, little-endian throughout (DESIGN.md §10):
//
//	GET  request: key u64                  response: found u8, value u64
//	PUT  request: key u64, value u64       response: status u8, kicks u32
//	DEL  request: key u64                  response: removed u8
//	BATCH request: sub u8, count u32, then count records —
//	      sub=GET/DEL: key u64             sub=PUT: key u64, value u64
//	BATCH response: sub u8, count u32, then count records of the matching
//	      single-op response encoding
//	STATS request: empty                   response: JSON (TableStats)
//	PING  request: empty                   response: empty
//	VGET  request: key u64                 response: state u8, value u64, seq u64
//	SUB   request: fromSeq u64             response: head u64, full u8
//	DIGEST request: lo u64, hi u64, maxKeys u32, nameLen u32, name bytes
//	DIGEST response: digest u64, count u64, included u32, then included
//	      records of key u64, meta u64 (included is 0 when count > maxKeys)
//	REPLICATE payload (either direction): head u64, count u32, then count
//	      records of seq u64, op u8 (OpPut|OpDel), key u64, value u64
//	REPLICATE response (requests only): count u32, then count apply
//	      statuses (u8 each: ApplyStale, ApplyApplied, ApplyFailed)
//	ERR   response: UTF-8 message
//
// Counts are validated against the actual payload length, so a hostile
// count cannot size an allocation beyond the bytes that are present.

// cursor is an allocation-free payload reader. Overruns latch bad; callers
// check ok() once at the end instead of per read.
type cursor struct {
	b   []byte
	off int
	bad bool
}

//mcvet:hotpath
func (c *cursor) u8() byte {
	if c.off+1 > len(c.b) {
		c.bad = true
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

//mcvet:hotpath
func (c *cursor) u32() uint32 {
	if c.off+4 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

//mcvet:hotpath
func (c *cursor) u64() uint64 {
	if c.off+8 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

// ok reports that every read succeeded and the payload was consumed
// exactly — trailing garbage is as malformed as truncation.
//
//mcvet:hotpath
func (c *cursor) ok() bool { return !c.bad && c.off == len(c.b) }

// appendU8/appendU32/appendU64 build payloads. They append, so steady-state
// callers pass buffers with spare capacity.
func appendU8(dst []byte, v byte) []byte { return append(dst, v) }

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// batchItemSize returns the request record size for a batch sub-op, or 0
// for an invalid sub-op.
func batchItemSize(sub byte) int {
	switch sub {
	case OpGet, OpDel:
		return 8
	case OpPut:
		return 16
	default:
		return 0
	}
}

// parseBatchHeader validates a BATCH request payload's sub-op and count
// against the payload length and returns them with the record bytes.
func parseBatchHeader(p []byte) (sub byte, count int, records []byte, ok bool) {
	if len(p) < 5 {
		return 0, 0, nil, false
	}
	sub = p[0]
	size := batchItemSize(sub)
	// Compare by division: the count times the record size can wrap a
	// 32-bit int to the payload length.
	if size == 0 || (len(p)-5)%size != 0 || uint64((len(p)-5)/size) != uint64(binary.LittleEndian.Uint32(p[1:5])) {
		return 0, 0, nil, false
	}
	return sub, (len(p) - 5) / size, p[5:], true
}

// Versioned-key states, carried in VGET responses. A tombstone is a deleted
// key whose deletion sequence number is retained so a stale PUT cannot
// resurrect it.
const (
	VStateMissing byte = 0
	VStateLive    byte = 1
	VStateTomb    byte = 2
)

// Per-entry apply statuses, carried in REPLICATE responses.
const (
	// ApplyStale: the store already held a write with an equal or newer
	// sequence number; the entry was a no-op. Counts as durable for quorum
	// purposes — the key's state is at least as new as the entry.
	ApplyStale byte = 0
	// ApplyApplied: the entry won and was written.
	ApplyApplied byte = 1
	// ApplyFailed: the entry should have won but the table rejected the
	// insert (capacity). The key's sequence number was NOT advanced.
	ApplyFailed byte = 2
)

// Entry is one sequence-numbered mutation: the unit of the server op log,
// the subscription stream, and the read-repair push. Op is OpPut or OpDel
// (Value is meaningless for deletes). Seq orders writes across the cluster:
// the higher sequence number wins, ties lose (first write at a seq is
// authoritative).
type Entry struct {
	Seq   uint64
	Op    byte
	Key   uint64
	Value uint64
}

// entrySize is the wire size of one Entry record.
const entrySize = 8 + 1 + 8 + 8

// replicateHeadLen is the fixed prefix of a REPLICATE payload: the sender's
// high-water sequence number (head) plus the record count.
const replicateHeadLen = 8 + 4

// MaxEntriesPerFrame is how many entries fit a default-sized REPLICATE
// frame; streams chunk at this bound.
const MaxEntriesPerFrame = (DefaultMaxPayload - replicateHeadLen) / entrySize

// ReplicatePayloadLen is the size of a REPLICATE payload of n entries.
func ReplicatePayloadLen(n int) int { return replicateHeadLen + n*entrySize }

// AppendReplicatePayload appends the REPLICATE payload encoding of ents to
// dst: head, count, then the fixed-size records. It grows dst at most
// once, to the payload's final size.
func AppendReplicatePayload(dst []byte, head uint64, ents []Entry) []byte {
	dst = slices.Grow(dst, ReplicatePayloadLen(len(ents)))
	dst = appendU64(dst, head)
	dst = appendU32(dst, uint32(len(ents)))
	for _, e := range ents {
		dst = appendU64(dst, e.Seq)
		dst = appendU8(dst, e.Op)
		dst = appendU64(dst, e.Key)
		dst = appendU64(dst, e.Value)
	}
	return dst
}

// ParseReplicatePayload decodes a REPLICATE payload into ents (reused if
// its capacity suffices). The count is validated against the payload length
// and every record's op against the two legal mutations.
func ParseReplicatePayload(p []byte, ents []Entry) (head uint64, _ []Entry, ok bool) {
	if len(p) < replicateHeadLen {
		return 0, nil, false
	}
	head = binary.LittleEndian.Uint64(p[0:8])
	// Compare by division, as in parseBatchHeader.
	n := len(p) - replicateHeadLen
	if n%entrySize != 0 || uint64(n/entrySize) != uint64(binary.LittleEndian.Uint32(p[8:12])) {
		return 0, nil, false
	}
	n /= entrySize
	if cap(ents) < n {
		ents = make([]Entry, n)
	}
	ents = ents[:n]
	c := cursor{b: p, off: replicateHeadLen}
	for i := 0; i < n; i++ {
		ents[i].Seq = c.u64()
		ents[i].Op = c.u8()
		ents[i].Key = c.u64()
		ents[i].Value = c.u64()
		if ents[i].Op != OpPut && ents[i].Op != OpDel {
			return 0, nil, false
		}
	}
	if !c.ok() {
		return 0, nil, false
	}
	return head, ents, true
}

// AppendVGetRequest appends a VGET request payload, the key, to dst.
func AppendVGetRequest(dst []byte, key uint64) []byte { return appendU64(dst, key) }

// ParseVGetResponse decodes a VGET response payload.
func ParseVGetResponse(p []byte) (state byte, value, seq uint64, err error) {
	c := cursor{b: p}
	state, value, seq = c.u8(), c.u64(), c.u64()
	if !c.ok() || state > VStateTomb {
		return 0, 0, 0, protoErrf("malformed vget response")
	}
	return state, value, seq, nil
}

// ParseReplicateResponse decodes the response to a REPLICATE push of n
// entries: one apply status per entry, aliasing p.
func ParseReplicateResponse(p []byte, n int) (statuses []byte, err error) {
	c := cursor{b: p}
	if got := c.u32(); c.bad || uint64(got) != uint64(n) || len(p)-4 != n {
		return nil, protoErrf("malformed replicate response")
	}
	for _, st := range p[4:] {
		if st > ApplyFailed {
			return nil, protoErrf("malformed replicate response")
		}
	}
	return p[4:], nil
}

// DigestEntry is one (key, meta) pair enumerated by a DIGEST response when
// the requested range is small enough; the anti-entropy sweeper's bisection
// bottoms out on these.
type DigestEntry struct {
	Key  uint64
	Meta uint64
}

// maxDigestName bounds the requester name carried in a DIGEST request; node
// names are host:port strings, so this is generous.
const maxDigestName = 256

// digestEntrySize is the wire size of one DigestEntry record.
const digestEntrySize = 8 + 8

// MaxDigestKeys is how many DigestEntry records fit a default-sized DIGEST
// response frame; servers clamp enumeration at this bound.
const MaxDigestKeys = (DefaultMaxPayload - 20) / digestEntrySize

// AppendDigestRequest encodes a DIGEST request: digest keys in [lo, hi]
// that the named requester co-owns with the serving node, enumerating them
// when the range holds at most maxKeys.
func AppendDigestRequest(dst []byte, lo, hi uint64, maxKeys int, name string) []byte {
	dst = appendU64(dst, lo)
	dst = appendU64(dst, hi)
	dst = appendU32(dst, uint32(maxKeys))
	dst = appendU32(dst, uint32(len(name)))
	return append(dst, name...)
}

// ParseDigestRequest decodes a DIGEST request, validating the name length
// against the payload and bounding maxKeys to what fits a response frame.
func ParseDigestRequest(p []byte) (lo, hi uint64, maxKeys int, name string, ok bool) {
	c := cursor{b: p}
	lo, hi = c.u64(), c.u64()
	mk := c.u32()
	nameLen := c.u32()
	if c.bad || nameLen > maxDigestName || len(p)-c.off != int(nameLen) || lo > hi {
		return 0, 0, 0, "", false
	}
	if mk > MaxDigestKeys {
		mk = MaxDigestKeys
	}
	return lo, hi, int(mk), string(p[c.off:]), true
}

// AppendDigestResponse encodes a DIGEST response. count is the number of
// keys matched in the range; keys enumerates them when the server chose to
// (len(keys) is 0 when count exceeded the request's maxKeys).
func AppendDigestResponse(dst []byte, digest, count uint64, keys []DigestEntry) []byte {
	dst = appendU64(dst, digest)
	dst = appendU64(dst, count)
	dst = appendU32(dst, uint32(len(keys)))
	for _, e := range keys {
		dst = appendU64(dst, e.Key)
		dst = appendU64(dst, e.Meta)
	}
	return dst
}

// ParseDigestResponse decodes a DIGEST response; the included count is
// validated against the payload length.
func ParseDigestResponse(p []byte) (digest, count uint64, keys []DigestEntry, ok bool) {
	c := cursor{b: p}
	digest, count = c.u64(), c.u64()
	n := int(c.u32())
	if c.bad || n > MaxDigestKeys || len(p)-c.off != n*digestEntrySize || uint64(n) > count {
		return 0, 0, nil, false
	}
	if n > 0 {
		keys = make([]DigestEntry, n)
		for i := range keys {
			keys[i].Key = c.u64()
			keys[i].Meta = c.u64()
		}
	}
	if !c.ok() {
		return 0, 0, nil, false
	}
	return digest, count, keys, true
}

// AppendSubscribePayload encodes a SUBSCRIBE request: resume after fromSeq.
func AppendSubscribePayload(dst []byte, fromSeq uint64) []byte {
	return appendU64(dst, fromSeq)
}

// ParseSubscribeResponse decodes a SUBSCRIBE OK response: the server's
// high-water sequence number and whether a full state dump precedes the
// incremental stream.
func ParseSubscribeResponse(p []byte) (head uint64, full bool, ok bool) {
	c := cursor{b: p}
	head = c.u64()
	f := c.u8()
	if !c.ok() || f > 1 {
		return 0, false, false
	}
	return head, f != 0, true
}
