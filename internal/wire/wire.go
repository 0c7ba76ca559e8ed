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
	// Trace is the causal trailer stamped by the sending transport
	// (zero when tracing is off). It is excluded from cost charging
	// and never consulted by the predicates — see trace.go.
	Trace TraceContext
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
	return AppendMessage(make([]byte, 0, EncodedSize(len(m.Payload))), m)
}

// AppendMessage appends the wire encoding of m to buf and returns the
// extended slice. It is the allocation-free form of Encode: callers
// that reuse buf across sends pay no per-message garbage.
func AppendMessage(buf []byte, m Message) ([]byte, error) {
	if !m.Kind.Valid() {
		return nil, fmt.Errorf("wire: encode: invalid kind %d", m.Kind)
	}
	if len(m.Payload) > MaxPayload {
		return nil, fmt.Errorf("wire: encode: payload %d bytes exceeds max %d", len(m.Payload), MaxPayload)
	}
	off := len(buf)
	buf = extend(buf, headerLen+len(m.Payload))
	b := buf[off:]
	b[0] = byte(m.Kind)
	binary.LittleEndian.PutUint32(b[1:], uint32(m.From))
	binary.LittleEndian.PutUint32(b[5:], uint32(m.To))
	binary.LittleEndian.PutUint32(b[9:], uint32(m.Stage))
	binary.LittleEndian.PutUint32(b[13:], uint32(m.Iter))
	binary.LittleEndian.PutUint32(b[17:], uint32(len(m.Payload)))
	copy(b[headerLen:], m.Payload)
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

// AppendKeys appends a length-prefixed key slice to buf. Keys are
// marshalled in one 8-byte-stride pass over a pre-grown buffer rather
// than element-wise appends.
func AppendKeys(buf []byte, keys []int64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	off := len(buf)
	buf = extend(buf, 8*len(keys))
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[off:], uint64(k))
		off += 8
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

// readKeys fills dst from the buffer in one 8-byte-stride pass. The
// caller must have bounds-checked len(dst) via keyCount or equivalent.
func (r *reader) readKeys(dst []int64) {
	src := r.buf[r.off:]
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
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
	// Dig is the sender-claimed multiset digest of Vals (all known
	// keys, order-independent). Receivers use it for the constant-time
	// Φ_F/Φ_C fast paths; Validate deliberately does NOT check Dig
	// against Vals — an inconsistent claim is Byzantine evidence the
	// merge logic detects and attributes, not a malformed message.
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
	if v.Base < 0 || v.Size < 0 {
		return fmt.Errorf("wire: view bounds base=%d size=%d invalid", v.Base, v.Size)
	}
	if v.BlockLen < 1 {
		return fmt.Errorf("wire: view block length %d invalid", v.BlockLen)
	}
	if v.Mask.Len() != int(v.Size) {
		return fmt.Errorf("wire: view mask length %d != size %d", v.Mask.Len(), v.Size)
	}
	if len(v.Vals) != v.Mask.Count()*int(v.BlockLen) {
		return fmt.Errorf("wire: view has %d values for %d known slots of %d keys",
			len(v.Vals), v.Mask.Count(), v.BlockLen)
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
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Base))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Size))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.BlockLen))
	buf = binary.LittleEndian.AppendUint64(buf, v.Dig.Sum)
	buf = binary.LittleEndian.AppendUint64(buf, v.Dig.Xor)
	nWords := v.Mask.WordCount()
	off := len(buf)
	buf = extend(buf, 8*(nWords+len(v.Vals)))
	for i := 0; i < nWords; i++ {
		binary.LittleEndian.PutUint64(buf[off:], v.Mask.Word(i))
		off += 8
	}
	for _, k := range v.Vals {
		binary.LittleEndian.PutUint64(buf[off:], uint64(k))
		off += 8
	}
	return buf, nil
}

// viewInto parses a view using (and resizing) the scratch's buffers.
// The returned View's Mask and Vals alias the scratch.
func (r *reader) viewInto(s *DecodeScratch) (View, error) {
	base, err := r.u32()
	if err != nil {
		return View{}, err
	}
	size, err := r.u32()
	if err != nil {
		return View{}, err
	}
	blockLen, err := r.u32()
	if err != nil {
		return View{}, err
	}
	digSum, err := r.u64()
	if err != nil {
		return View{}, err
	}
	digXor, err := r.u64()
	if err != nil {
		return View{}, err
	}
	if size > MaxPayload/8 || blockLen < 1 || blockLen > MaxPayload/8 {
		return View{}, fmt.Errorf("wire: view size %d block %d implausible: %w", size, blockLen, ErrTruncated)
	}
	nWords := (int(size) + 63) / 64
	if nWords > (len(r.buf)-r.off)/8 {
		return View{}, ErrTruncated
	}
	s.words = scratchSlice(s.words, nWords)
	src := r.buf[r.off:]
	for i := range s.words {
		s.words[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	r.off += 8 * nWords
	if err := s.mask.LoadWords(int(size), s.words); err != nil {
		return View{}, fmt.Errorf("wire: view mask: %w", err)
	}
	total := s.mask.Count() * int(blockLen)
	if total > (len(r.buf)-r.off)/8 {
		return View{}, fmt.Errorf("wire: view claims %d values beyond buffer: %w", total, ErrTruncated)
	}
	s.vals = scratchSlice(s.vals, total)
	r.readKeys(s.vals)
	return View{Base: int32(base), Size: int32(size), BlockLen: int32(blockLen),
		Dig: Digest{Sum: digSum, Xor: digXor}, Mask: s.mask, Vals: s.vals}, nil
}

// ViewEncodedSize returns the payload bytes AppendView produces for a
// view over size slots with known known slots of blockLen keys each.
func ViewEncodedSize(size, known, blockLen int) int {
	return 4 + 4 + 4 + 16 + 8*((size+63)/64) + 8*known*blockLen
}

// --- scratch decoding ------------------------------------------------------

// DecodeScratch holds reusable buffers for the allocation-free
// Decode*Into variants. Payloads returned by those methods alias the
// scratch storage (Keys, View.Mask, View.Vals), so each result is valid
// only until the next Decode*Into call on the same scratch. The zero
// value is ready to use; after a warm-up call per payload shape, decodes
// perform no allocation. A fresh scratch allocates every buffer anew,
// so the plain Decode* functions decode into one and their results own
// their memory.
type DecodeScratch struct {
	keys  []int64
	vals  []int64
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

// DecodeExchangeInto parses an ExchangePayload into the scratch.
func DecodeExchangeInto(s *DecodeScratch, buf []byte) (ExchangePayload, error) {
	r := &reader{buf: buf}
	n, err := r.keyCount()
	if err != nil {
		return ExchangePayload{}, err
	}
	s.keys = scratchSlice(s.keys, n)
	r.readKeys(s.keys)
	if err := r.done(); err != nil {
		return ExchangePayload{}, err
	}
	return ExchangePayload{Keys: s.keys}, nil
}

// DecodeFTExchangeInto parses an FTExchangePayload into the scratch.
func DecodeFTExchangeInto(s *DecodeScratch, buf []byte) (FTExchangePayload, error) {
	r := &reader{buf: buf}
	n, err := r.keyCount()
	if err != nil {
		return FTExchangePayload{}, err
	}
	s.keys = scratchSlice(s.keys, n)
	r.readKeys(s.keys)
	v, err := r.viewInto(s)
	if err != nil {
		return FTExchangePayload{}, err
	}
	if err := r.done(); err != nil {
		return FTExchangePayload{}, err
	}
	return FTExchangePayload{Keys: s.keys, View: v}, nil
}

// DecodeVerifyInto parses a VerifyPayload into the scratch.
func DecodeVerifyInto(s *DecodeScratch, buf []byte) (VerifyPayload, error) {
	r := &reader{buf: buf}
	v, err := r.viewInto(s)
	if err != nil {
		return VerifyPayload{}, err
	}
	if err := r.done(); err != nil {
		return VerifyPayload{}, err
	}
	return VerifyPayload{View: v}, nil
}

// DecodeHostInto parses a HostPayload into the scratch.
func DecodeHostInto(s *DecodeScratch, buf []byte) (HostPayload, error) {
	r := &reader{buf: buf}
	n, err := r.keyCount()
	if err != nil {
		return HostPayload{}, err
	}
	s.keys = scratchSlice(s.keys, n)
	r.readKeys(s.keys)
	if err := r.done(); err != nil {
		return HostPayload{}, err
	}
	return HostPayload{Keys: s.keys}, nil
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
// own.
func DecodeFTExchange(buf []byte) (FTExchangePayload, error) {
	return DecodeFTExchangeInto(new(DecodeScratch), buf)
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

// DecodeVerify parses a VerifyPayload into storage of its own.
func DecodeVerify(buf []byte) (VerifyPayload, error) {
	return DecodeVerifyInto(new(DecodeScratch), buf)
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
