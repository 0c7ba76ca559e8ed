package wire

import (
	"encoding/binary"
	"unsafe"
)

// The key codec: every run of keys a frame carries (exchange and host
// keys, view values, the stream lane's bulk keys) is 8 bytes per key,
// little-endian, with no per-key framing. On a little-endian host that
// is the keys' own memory, so encoding and decoding are each one copy
// between the []int64 and the frame. Elsewhere the per-key loop
// (putValsPerKey, getValsPerKey) swaps each key.
//
// Only one direction is ever viewed through unsafe: a []int64 as its
// bytes (valBytes), which any address allows. Frame bytes are never
// viewed as int64s: a view's values start at byte offset 1 or 5 mod 8
// in their frame, and such a view would be misaligned (checkptr, which
// -race enables, rejects the conversion). Readers of values left in a
// frame (FrameView.Block, Val) decode them with
// binary.LittleEndian.Uint64.

// nativeLittleEndian is whether the host's byte order is the wire's,
// fixed once at start-up.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// AppendVals appends keys to buf, 8 little-endian bytes each with no
// length prefix, growing buf at most once.
func AppendVals(buf []byte, keys []int64) []byte {
	off := len(buf)
	buf = extend(buf, 8*len(keys))
	if nativeLittleEndian {
		copy(buf[off:], valBytes(keys))
	} else {
		putValsPerKey(buf[off:], keys)
	}
	return buf
}

// ReadVals decodes len(dst) keys from the start of src, which must hold
// at least 8·len(dst) bytes: the inverse of AppendVals.
func ReadVals(dst []int64, src []byte) {
	src = src[:8*len(dst)]
	if nativeLittleEndian {
		copy(valBytes(dst), src)
	} else {
		getValsPerKey(dst, src)
	}
}

// valBytes views keys as their 8·len(keys) bytes of memory.
func valBytes(keys []int64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(keys))), 8*len(keys))
}

// putValsPerKey is AppendVals' encoding on a big-endian host: dst must
// hold 8·len(keys) bytes.
func putValsPerKey(dst []byte, keys []int64) {
	for i, k := range keys {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(k))
	}
}

// getValsPerKey is ReadVals' decoding on a big-endian host.
func getValsPerKey(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
}
