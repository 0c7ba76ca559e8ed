// Package wire defines the on-the-wire message format exchanged by
// node processors and the host. Messages are serialized with
// encoding/binary (little endian) so the simulator can charge
// communication cost by *byte length*, reproducing the paper's
// observation that the fault-tolerant algorithm S_FT keeps the message
// count of S_NR while growing the message length.
//
// The format deliberately carries no transport checksums: the paper's
// threat model is Byzantine (arbitrarily corrupted) messages, and
// detection is the job of the application-level constraint predicate,
// not the transport. The View's multiset Digest is not a transport
// checksum — it is part of the application-level acceptance tests (the
// sender's *claim* about its view, which Φ_C/Φ_F verify and may turn
// into Byzantine evidence).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitset"
)

// Kind discriminates message payloads.
type Kind uint8

// Message kinds. Values are fixed wire constants; do not reorder.
const (
	// KindExchange is an S_NR compare-exchange message carrying keys only.
	KindExchange Kind = iota + 1
	// KindFTExchange is an S_FT compare-exchange message carrying keys
	// plus the piggybacked bitonic-sequence view (LBS).
	KindFTExchange
	// KindVerify is the final pure-exchange verification message of
	// S_FT, carrying a view only.
	KindVerify
	// KindHostUpload carries node data to the host (sequential baselines).
	KindHostUpload
	// KindHostDownload carries host data to a node.
	KindHostDownload
	// KindError is a node's diagnostic ERROR signal to the host.
	KindError
)

// kindNames is indexed by Kind; Valid and String are on the hot path
// of every Encode/Decode, so this is an array lookup, not a map.
var kindNames = [...]string{
	KindExchange:     "exchange",
	KindFTExchange:   "ft-exchange",
	KindVerify:       "verify",
	KindHostUpload:   "host-upload",
	KindHostDownload: "host-download",
	KindError:        "error",
}

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	if k.Valid() {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined message kind.
func (k Kind) Valid() bool {
	return int(k) < len(kindNames) && kindNames[k] != ""
}

// Message is the unit of communication between processors. From/To are
// node labels (HostID for the host). Stage and Iter are the (i, j)
// loop indices of the bitonic schedule at sending time, letting the
// receiver match messages to protocol steps.
type Message struct {
	Kind    Kind
	From    int32
	To      int32
	Stage   int32
	Iter    int32
	Payload []byte
	// Body, when non-nil, encodes the payload in place of Payload: the
	// sender writes its state straight into the frame being built
	// instead of staging it in a payload buffer first. It is
	// sender-only; every decoded message has a nil Body.
	Body Body
	// Trace is the causal trailer stamped by the sending transport
	// (zero when tracing is off). It is excluded from cost charging
	// and never consulted by the predicates — see trace.go.
	Trace TraceContext
}

// Body is a payload encoder a sender hands the transport in place of
// payload bytes (Message.Body). Len must report exactly the number of
// bytes AppendTo appends, so the transport can size the frame before
// encoding into it.
type Body interface {
	Len() int
	AppendTo(buf []byte) []byte
}

// PayloadLen returns the encoded payload length: Body's when the
// message has one, else Payload's.
func (m *Message) PayloadLen() int {
	if m.Body != nil {
		return m.Body.Len()
	}
	return len(m.Payload)
}

// HostID is the pseudo-node label of the host processor.
const HostID int32 = -1

// headerLen is the encoded size of the fixed header:
// kind(1) + from(4) + to(4) + stage(4) + iter(4) + payloadLen(4).
const headerLen = 1 + 4*5

// MaxPayload bounds a single message payload; it exists only to reject
// absurd length fields in corrupted headers before allocation.
const MaxPayload = 1 << 26 // 64 MiB

// ErrTruncated is returned when a buffer ends before a complete value.
var ErrTruncated = errors.New("wire: truncated message")

// Encode serializes the message. The encoding is
// deterministic, so byte counts are reproducible across runs.
func Encode(m Message) ([]byte, error) {
	return AppendMessage(make([]byte, 0, EncodedSize(m.PayloadLen())), m)
}

// AppendMessage appends the wire encoding of m to buf and returns the
// extended slice. It is the allocation-free form of Encode: callers
// that reuse buf across sends pay no per-message garbage. buf grows at
// most once, to the whole frame, before the payload is written, so a
// Body encodes straight into its final place.
func AppendMessage(buf []byte, m Message) ([]byte, error) {
	if !m.Kind.Valid() {
		return nil, fmt.Errorf("wire: encode: invalid kind %d", m.Kind)
	}
	n := m.PayloadLen()
	if n > MaxPayload {
		return nil, fmt.Errorf("wire: encode: payload %d bytes exceeds max %d", n, MaxPayload)
	}
	off := len(buf)
	buf = slices.Grow(buf, EncodedSize(n))[:off+headerLen]
	b := buf[off:]
	b[0] = byte(m.Kind)
	binary.LittleEndian.PutUint32(b[1:], uint32(m.From))
	binary.LittleEndian.PutUint32(b[5:], uint32(m.To))
	binary.LittleEndian.PutUint32(b[9:], uint32(m.Stage))
	binary.LittleEndian.PutUint32(b[13:], uint32(m.Iter))
	binary.LittleEndian.PutUint32(b[17:], uint32(n))
	if m.Body == nil {
		buf = append(buf, m.Payload...)
	} else if buf = m.Body.AppendTo(buf); len(buf) != off+headerLen+n {
		return nil, fmt.Errorf("wire: encode: body wrote %d bytes, Len said %d", len(buf)-off-headerLen, n)
	}
	return appendTrace(buf, m.Trace), nil
}

// Decode parses a message from buf. Trailing bytes after the declared
// payload are an error: links are message-framed, not streams. The
// returned payload is an independent copy of buf's bytes.
func Decode(buf []byte) (Message, error) {
	m, err := DecodeFrom(buf)
	if err != nil {
		return Message{}, err
	}
	p := make([]byte, len(m.Payload))
	copy(p, m.Payload)
	m.Payload = p
	return m, nil
}

// DecodeFrom parses a message from buf without copying: the returned
// Payload aliases buf. Callers own the aliasing contract — the message
// is valid only as long as buf is neither reused nor mutated. The
// simulated and TCP transports rely on this to deliver messages with
// zero steady-state allocation.
func DecodeFrom(buf []byte) (Message, error) {
	if len(buf) < headerLen {
		return Message{}, ErrTruncated
	}
	m := Message{
		Kind:  Kind(buf[0]),
		From:  int32(binary.LittleEndian.Uint32(buf[1:])),
		To:    int32(binary.LittleEndian.Uint32(buf[5:])),
		Stage: int32(binary.LittleEndian.Uint32(buf[9:])),
		Iter:  int32(binary.LittleEndian.Uint32(buf[13:])),
	}
	if !m.Kind.Valid() {
		return Message{}, fmt.Errorf("wire: decode: invalid kind %d", buf[0])
	}
	n := binary.LittleEndian.Uint32(buf[17:])
	if n > MaxPayload {
		return Message{}, fmt.Errorf("wire: decode: payload length %d exceeds max %d", n, MaxPayload)
	}
	if len(buf) != headerLen+int(n)+TraceWireLen {
		return Message{}, fmt.Errorf("wire: decode: buffer %d bytes, header declares %d: %w",
			len(buf), headerLen+int(n)+TraceWireLen, ErrTruncated)
	}
	m.Payload = buf[headerLen : headerLen+int(n)]
	m.Trace = decodeTrace(buf[headerLen+int(n):])
	return m, nil
}

// extend grows buf by n bytes in place when capacity allows, returning
// the lengthened slice. The appended region is uninitialized; callers
// must overwrite all of it.
func extend(buf []byte, n int) []byte {
	return slices.Grow(buf, n)[:len(buf)+n]
}

// EncodedSize returns the number of bytes Encode will produce for a
// message with the given payload length, trace trailer included.
func EncodedSize(payloadLen int) int { return headerLen + payloadLen + TraceWireLen }

// --- payload building blocks -------------------------------------------

// AppendKeys appends a length-prefixed key sequence to buf: the parts
// in order under one count, the bytes of their concatenation, growing
// buf at most once.
func AppendKeys(buf []byte, parts ...[]int64) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	buf = slices.Grow(binary.LittleEndian.AppendUint32(buf, uint32(n)), 8*n)
	for _, p := range parts {
		buf = AppendVals(buf, p)
	}
	return buf
}

// reader is a cursor over a payload buffer.
type reader struct {
	buf []byte
	off int
}

func (r *reader) u8() (uint8, error) {
	if r.off+1 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// keyCount reads and bounds-checks a key-count prefix; after a nil
// error, readKeys for that many keys cannot run out of buffer.
func (r *reader) keyCount() (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int(n) > (len(r.buf)-r.off)/8 {
		return 0, fmt.Errorf("wire: key count %d exceeds remaining buffer: %w", n, ErrTruncated)
	}
	return int(n), nil
}

// readKeys fills dst from the buffer (ReadVals). The caller must have
// bounds-checked len(dst) via keyCount or equivalent.
func (r *reader) readKeys(dst []int64) {
	ReadVals(dst, r.buf[r.off:])
	r.off += 8 * len(dst)
}

func (r *reader) done() error {
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes in payload", len(r.buf)-r.off)
	}
	return nil
}

// --- view ----------------------------------------------------------------

// View is a node's partial knowledge of the bitonic sequence held by a
// subcube: for each subcube slot (node label Base+k, 0 <= k < Size),
// Mask records whether the value is known and Vals holds the known
// values in ascending slot order. This is the LBS structure of
// algorithm S_FT together with its lmask knowledge bit vector.
//
// In block sorting each slot holds BlockLen keys rather than one; Vals
// then carries BlockLen consecutive keys per known slot. BlockLen is 1
// for the one-key-per-node algorithms.
type View struct {
	Base     int32
	Size     int32
	BlockLen int32
	// Dig is the sender-claimed aggregate digest of the view: the
	// Merge, over every known slot, of the slot's multiset digest bound
	// to its index (SlotBound). Receivers use it for the Φ_C fast path;
	// Validate deliberately does NOT check Dig against Vals — an
	// inconsistent claim is Byzantine evidence the merge logic detects
	// and attributes, not a malformed message.
	Dig  Digest
	Mask bitset.Set
	Vals []int64
}

// NewView returns an empty one-key-per-slot view over the subcube
// [base, base+size).
func NewView(base, size int) View {
	return NewBlockView(base, size, 1)
}

// NewBlockView returns an empty view whose slots each hold blockLen keys.
func NewBlockView(base, size, blockLen int) View {
	return View{Base: int32(base), Size: int32(size), BlockLen: int32(blockLen), Mask: bitset.New(size)}
}

// Validate checks structural invariants: non-negative bounds, positive
// block length, mask length matching Size, and BlockLen values per set
// mask bit.
func (v View) Validate() error {
	return validateView(v.Base, v.Size, v.BlockLen, v.Mask, len(v.Vals))
}

// validateView is View.Validate over a view's parts, vals being its
// value count; FrameView.Validate shares it.
func validateView(base, size, blockLen int32, mask bitset.Set, vals int) error {
	if base < 0 || size < 0 {
		return fmt.Errorf("wire: view bounds base=%d size=%d invalid", base, size)
	}
	if blockLen < 1 {
		return fmt.Errorf("wire: view block length %d invalid", blockLen)
	}
	if mask.Len() != int(size) {
		return fmt.Errorf("wire: view mask length %d != size %d", mask.Len(), size)
	}
	if vals != mask.Count()*int(blockLen) {
		return fmt.Errorf("wire: view has %d values for %d known slots of %d keys",
			vals, mask.Count(), blockLen)
	}
	return nil
}

// Block returns the keys of the i-th known slot (in mask index order).
func (v View) Block(i int) []int64 {
	b := int(v.BlockLen)
	return v.Vals[i*b : (i+1)*b]
}

// AppendView appends the view's encoding to buf:
// base(4) size(4) blockLen(4) digSum(8) digXor(8) words(8 each)
// vals(8 each).
func AppendView(buf []byte, v View) ([]byte, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return AppendVals(AppendViewHeader(buf, v.Base, v.Size, v.BlockLen, v.Dig, v.Mask), v.Vals), nil
}

// AppendViewHeader appends what precedes a view's values in its
// encoding (AppendView): the geometry, the digest and the mask words. A
// view encoder that holds its blocks elsewhere appends the known slots'
// keys after it with AppendVals, in ascending slot order.
func AppendViewHeader(buf []byte, base, size, blockLen int32, dig Digest, mask bitset.Set) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(base))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(size))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(blockLen))
	buf = binary.LittleEndian.AppendUint64(buf, dig.Sum)
	buf = binary.LittleEndian.AppendUint64(buf, dig.Xor)
	off := len(buf)
	buf = extend(buf, 8*mask.WordCount())
	for i := 0; i < mask.WordCount(); i++ {
		binary.LittleEndian.PutUint64(buf[off:], mask.Word(i))
		off += 8
	}
	return buf
}

// FrameView is a view decoded in place: its geometry, digest and mask
// are parsed, but its values stay encoded in the payload they arrived
// in. A receiver reads each value where it uses it (Block, Val)
// instead of decoding the whole view first. It is valid only as long
// as that payload (on a transport, until the endpoint's next receive)
// and the DecodeScratch holding its Mask.
type FrameView struct {
	Base     int32
	Size     int32
	BlockLen int32
	Dig      Digest
	Mask     bitset.Set
	// vals holds Mask.Count()·BlockLen encoded keys.
	vals []byte
}

// Validate checks the invariants View.Validate checks, with the same
// errors.
func (v *FrameView) Validate() error {
	return validateView(v.Base, v.Size, v.BlockLen, v.Mask, len(v.vals)/8)
}

// Val returns the view's j-th value, counting BlockLen values per known
// slot in mask index order.
func (v *FrameView) Val(j int) int64 {
	return int64(binary.LittleEndian.Uint64(v.vals[8*j:]))
}

// Block decodes the keys of the i-th known slot (in mask index order)
// into dst, which must hold BlockLen keys, and returns their multiset
// digest, folded in the same pass in four lanes as DigestOf folds.
func (v *FrameView) Block(i int, dst []int64) Digest {
	b := int(v.BlockLen)
	src := v.vals[8*i*b : 8*(i+1)*b]
	dst = dst[:b]
	var s0, s1, s2, s3, x0, x1, x2, x3 uint64
	n := b &^ 3
	for k := 0; k < n; k += 4 {
		w := src[8*k : 8*k+32 : 8*k+32]
		d := dst[k : k+4 : k+4]
		d[0] = int64(binary.LittleEndian.Uint64(w[0:]))
		d[1] = int64(binary.LittleEndian.Uint64(w[8:]))
		d[2] = int64(binary.LittleEndian.Uint64(w[16:]))
		d[3] = int64(binary.LittleEndian.Uint64(w[24:]))
		h0, h1, h2, h3 := MixKey(d[0]), MixKey(d[1]), MixKey(d[2]), MixKey(d[3])
		s0, s1, s2, s3 = s0+h0, s1+h1, s2+h2, s3+h3
		x0, x1, x2, x3 = x0^h0, x1^h1, x2^h2, x3^h3
	}
	for k := n; k < b; k++ {
		dst[k] = int64(binary.LittleEndian.Uint64(src[8*k:]))
		h := MixKey(dst[k])
		s0 += h
		x0 ^= h
	}
	return Digest{Sum: s0 + s1 + s2 + s3, Xor: x0 ^ x1 ^ x2 ^ x3}
}

// view returns v with its values decoded into storage of its own. The
// values are never nil, so a decoded empty view compares equal to an
// encoded one.
func (v *FrameView) view() View {
	vals := make([]int64, len(v.vals)/8)
	r := reader{buf: v.vals}
	r.readKeys(vals)
	return View{Base: v.Base, Size: v.Size, BlockLen: v.BlockLen, Dig: v.Dig, Mask: v.Mask, Vals: vals}
}

// frameView parses a view in place: the mask into the scratch, the
// values left in the buffer.
func (r *reader) frameView(s *DecodeScratch) (FrameView, error) {
	base, err := r.u32()
	if err != nil {
		return FrameView{}, err
	}
	size, err := r.u32()
	if err != nil {
		return FrameView{}, err
	}
	blockLen, err := r.u32()
	if err != nil {
		return FrameView{}, err
	}
	digSum, err := r.u64()
	if err != nil {
		return FrameView{}, err
	}
	digXor, err := r.u64()
	if err != nil {
		return FrameView{}, err
	}
	if size > MaxPayload/8 || blockLen < 1 || blockLen > MaxPayload/8 {
		return FrameView{}, fmt.Errorf("wire: view size %d block %d implausible: %w", size, blockLen, ErrTruncated)
	}
	nWords := (int(size) + 63) / 64
	if nWords > (len(r.buf)-r.off)/8 {
		return FrameView{}, ErrTruncated
	}
	s.words = scratchSlice(s.words, nWords)
	src := r.buf[r.off:]
	for i := range s.words {
		s.words[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	r.off += 8 * nWords
	if err := s.mask.LoadWords(int(size), s.words); err != nil {
		return FrameView{}, fmt.Errorf("wire: view mask: %w", err)
	}
	total := s.mask.Count() * int(blockLen)
	if total > (len(r.buf)-r.off)/8 {
		return FrameView{}, fmt.Errorf("wire: view claims %d values beyond buffer: %w", total, ErrTruncated)
	}
	v := FrameView{Base: int32(base), Size: int32(size), BlockLen: int32(blockLen),
		Dig: Digest{Sum: digSum, Xor: digXor}, Mask: s.mask, vals: r.buf[r.off : r.off+8*total]}
	r.off += 8 * total
	return v, nil
}

// ViewEncodedSize returns the payload bytes AppendView produces for a
// view over size slots with known known slots of blockLen keys each.
func ViewEncodedSize(size, known, blockLen int) int {
	return 4 + 4 + 4 + 16 + 8*((size+63)/64) + 8*known*blockLen
}

// --- scratch decoding ------------------------------------------------------

// DecodeScratch holds reusable buffers for the allocation-free decoders
// (DecodeExchangeInto, DecodeHostInto, DecodeFTExchangeFrame,
// DecodeVerifyFrame). Their results alias the scratch storage (Keys,
// FrameView.Mask), so each is valid only until the next decode into the
// same scratch. The zero value is ready to use; after a warm-up call per
// payload shape, decodes perform no allocation. A fresh scratch
// allocates every buffer anew, so the plain Decode* functions decode
// into one and their results own their memory.
type DecodeScratch struct {
	keys  []int64
	words []uint64
	mask  bitset.Set
}

// scratchSlice resizes a scratch slice to n elements, reusing capacity
// when possible. Contents are unspecified; callers overwrite. The
// result is always non-nil so decoded empty slices compare equal to
// their allocating counterparts.
func scratchSlice[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// readKeysInto reads a key-count prefix and that many keys into the
// scratch.
func (r *reader) readKeysInto(s *DecodeScratch) ([]int64, error) {
	n, err := r.keyCount()
	if err != nil {
		return nil, err
	}
	s.keys = scratchSlice(s.keys, n)
	r.readKeys(s.keys)
	return s.keys, nil
}

// DecodeExchangeInto parses an ExchangePayload into the scratch.
func DecodeExchangeInto(s *DecodeScratch, buf []byte) (ExchangePayload, error) {
	r := &reader{buf: buf}
	keys, err := r.readKeysInto(s)
	if err != nil {
		return ExchangePayload{}, err
	}
	if err := r.done(); err != nil {
		return ExchangePayload{}, err
	}
	return ExchangePayload{Keys: keys}, nil
}

// FTExchangeFrame is an FTExchangePayload decoded in place: the keys
// in the scratch, the view's values in the payload.
type FTExchangeFrame struct {
	Keys []int64
	View FrameView
}

// DecodeFTExchangeFrame parses an FTExchangePayload in place: the keys
// into the scratch, the view as a FrameView over buf.
func DecodeFTExchangeFrame(s *DecodeScratch, buf []byte) (FTExchangeFrame, error) {
	r := &reader{buf: buf}
	keys, err := r.readKeysInto(s)
	if err != nil {
		return FTExchangeFrame{}, err
	}
	v, err := r.frameView(s)
	if err != nil {
		return FTExchangeFrame{}, err
	}
	if err := r.done(); err != nil {
		return FTExchangeFrame{}, err
	}
	return FTExchangeFrame{Keys: keys, View: v}, nil
}

// DecodeVerifyFrame parses a VerifyPayload in place: its view as a
// FrameView over buf.
func DecodeVerifyFrame(s *DecodeScratch, buf []byte) (FrameView, error) {
	r := &reader{buf: buf}
	v, err := r.frameView(s)
	if err != nil {
		return FrameView{}, err
	}
	if err := r.done(); err != nil {
		return FrameView{}, err
	}
	return v, nil
}

// DecodeHostInto parses a HostPayload into the scratch.
func DecodeHostInto(s *DecodeScratch, buf []byte) (HostPayload, error) {
	r := &reader{buf: buf}
	keys, err := r.readKeysInto(s)
	if err != nil {
		return HostPayload{}, err
	}
	if err := r.done(); err != nil {
		return HostPayload{}, err
	}
	return HostPayload{Keys: keys}, nil
}

// --- composite payloads ----------------------------------------------------

// ExchangePayload is the body of a KindExchange message: the compare-
// exchange keys only (one key from the passive node, the min/max pair
// back from the active node, or a block of m keys in block sorting).
type ExchangePayload struct {
	Keys []int64
}

// EncodeExchange serializes an ExchangePayload.
func EncodeExchange(p ExchangePayload) []byte {
	return AppendExchange(nil, p.Keys)
}

// AppendExchange appends an ExchangePayload encoding to buf; the
// allocation-free form of EncodeExchange.
func AppendExchange(buf []byte, keys []int64) []byte {
	return AppendKeys(buf, keys)
}

// DecodeExchange parses an ExchangePayload into storage of its own.
func DecodeExchange(buf []byte) (ExchangePayload, error) {
	return DecodeExchangeInto(new(DecodeScratch), buf)
}

// FTExchangePayload is the body of a KindFTExchange message: the
// compare-exchange keys plus the sender's piggybacked view of the
// current stage's bitonic sequence (LBS).
type FTExchangePayload struct {
	Keys []int64
	View View
}

// EncodeFTExchange serializes an FTExchangePayload.
func EncodeFTExchange(p FTExchangePayload) ([]byte, error) {
	return AppendFTExchange(nil, p)
}

// AppendFTExchange appends an FTExchangePayload encoding to buf; the
// allocation-free form of EncodeFTExchange.
func AppendFTExchange(buf []byte, p FTExchangePayload) ([]byte, error) {
	buf = AppendKeys(buf, p.Keys)
	return AppendView(buf, p.View)
}

// DecodeFTExchange parses an FTExchangePayload into storage of its
// own: DecodeFTExchangeFrame, with the view's values copied out. Unlike
// the in-place decoders, which leave a view that parses but fails
// Validate to its receiver as evidence of a malformed view, it returns
// only views that validate.
func DecodeFTExchange(buf []byte) (FTExchangePayload, error) {
	p, err := DecodeFTExchangeFrame(new(DecodeScratch), buf)
	if err == nil {
		err = p.View.Validate()
	}
	if err != nil {
		return FTExchangePayload{}, err
	}
	return FTExchangePayload{Keys: p.Keys, View: p.View.view()}, nil
}

// VerifyPayload is the body of a KindVerify message: the final sorted
// view exchanged in S_FT's last pure-verification stage.
type VerifyPayload struct {
	View View
}

// EncodeVerify serializes a VerifyPayload.
func EncodeVerify(p VerifyPayload) ([]byte, error) {
	return AppendVerify(nil, p)
}

// AppendVerify appends a VerifyPayload encoding to buf; the
// allocation-free form of EncodeVerify.
func AppendVerify(buf []byte, p VerifyPayload) ([]byte, error) {
	return AppendView(buf, p.View)
}

// DecodeVerify parses a VerifyPayload into storage of its own:
// DecodeVerifyFrame, with the view's values copied out. Like
// DecodeFTExchange it returns only views that validate.
func DecodeVerify(buf []byte) (VerifyPayload, error) {
	v, err := DecodeVerifyFrame(new(DecodeScratch), buf)
	if err == nil {
		err = v.Validate()
	}
	if err != nil {
		return VerifyPayload{}, err
	}
	return VerifyPayload{View: v.view()}, nil
}

// HostPayload is the body of host upload/download messages.
type HostPayload struct {
	Keys []int64
}

// EncodeHost serializes a HostPayload.
func EncodeHost(p HostPayload) []byte { return AppendHost(nil, p.Keys) }

// AppendHost appends a HostPayload encoding to buf; the
// allocation-free form of EncodeHost.
func AppendHost(buf []byte, keys []int64) []byte { return AppendKeys(buf, keys) }

// DecodeHost parses a HostPayload into storage of its own.
func DecodeHost(buf []byte) (HostPayload, error) {
	return DecodeHostInto(new(DecodeScratch), buf)
}

// ErrorPayload is the body of a node's ERROR signal to the host: which
// constraint predicate failed, what kind of evidence fired it, whom
// the evidence implicates, and a short description.
type ErrorPayload struct {
	Predicate string // "progress", "feasibility", "consistency", "protocol"
	// Kind is the structured evidence class (core.ErrorKind: value,
	// absence, or shape), carried as a raw byte so the wire layer stays
	// free of higher-layer imports. Diagnosis keys off this field;
	// Detail is for humans only.
	Kind uint8
	// Accused is the node the evidence implicates, -1 when none.
	Accused int32
	Detail  string
}

// EncodeError serializes an ErrorPayload.
func EncodeError(p ErrorPayload) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(p.Predicate)))
	buf = append(buf, p.Predicate...)
	buf = append(buf, p.Kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Accused))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Detail)))
	buf = append(buf, p.Detail...)
	return buf
}

// DecodeError parses an ErrorPayload.
func DecodeError(buf []byte) (ErrorPayload, error) {
	r := &reader{buf: buf}
	pred, err := r.str()
	if err != nil {
		return ErrorPayload{}, err
	}
	kind, err := r.u8()
	if err != nil {
		return ErrorPayload{}, err
	}
	acc, err := r.u32()
	if err != nil {
		return ErrorPayload{}, err
	}
	det, err := r.str()
	if err != nil {
		return ErrorPayload{}, err
	}
	if err := r.done(); err != nil {
		return ErrorPayload{}, err
	}
	return ErrorPayload{Predicate: pred, Kind: kind, Accused: int32(acc), Detail: det}, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if int(n) > len(r.buf)-r.off {
		return "", fmt.Errorf("wire: string length %d exceeds remaining buffer: %w", n, ErrTruncated)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}
