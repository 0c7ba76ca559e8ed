package wire

// Digest is an incremental, order-independent multiset digest over sort
// keys: the sum and XOR of a 64-bit mix of each key. Two multisets of
// keys are equal only if their digests are equal, and equal digests
// imply equal multisets up to hash collision (the ABFT checksum move of
// Bosilca et al., arXiv:0806.3121, applied to the paper's acceptance
// tests). Properties the verification stack relies on:
//
//   - O(1) per element: Add folds one key in with one multiply-mix, one
//     add, one XOR. Merge combines two digests in O(1), so a view's
//     digest is maintained under adoption without rescanning.
//   - Order independence: Sum and XOR are commutative and associative,
//     so any interleaving of Add/Merge over the same multiset yields
//     the same digest — exactly what Φ_F (permutation) needs.
//   - Fail-safe direction: a digest MISMATCH between equal-length
//     sequences proves the multisets differ (no false alarms), so the
//     element-level scan demoted to the mismatch slow path always finds
//     real, attributable evidence. Only digest EQUALITY is
//     probabilistic (~2⁻⁶⁴ per check against random corruption; the mix
//     is not keyed, so it is not collision-resistant against an
//     adversary who targets the constant — DESIGN.md §8).
type Digest struct {
	Sum uint64
	Xor uint64
}

// MixKey is the 64-bit finalizer (splitmix64) applied to each key
// before folding. Raw sums of keys would let two corruptions cancel
// (e.g. +1 here, -1 there); mixing makes cancellation as hard as a
// generic collision.
func MixKey(v int64) uint64 {
	z := uint64(v) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add folds one key into the digest.
func (d *Digest) Add(v int64) {
	h := MixKey(v)
	d.Sum += h
	d.Xor ^= h
}

// Remove unfolds one key from the digest (the inverse of Add), letting
// a slot be overwritten without rebuilding the whole digest.
func (d *Digest) Remove(v int64) {
	h := MixKey(v)
	d.Sum -= h
	d.Xor ^= h
}

// Merge folds another digest in: the result is the digest of the
// multiset union.
func (d *Digest) Merge(o Digest) {
	d.Sum += o.Sum
	d.Xor ^= o.Xor
}

// Merged returns the digest of the multiset union without mutating d.
func (d Digest) Merged(o Digest) Digest {
	return Digest{Sum: d.Sum + o.Sum, Xor: d.Xor ^ o.Xor}
}

// DigestOf returns the digest of a whole key slice. It folds the keys
// into four independent lanes, so consecutive keys do not wait on one
// accumulator, and combines the lanes at the end; addition and XOR
// being associative and commutative, the digest is the one Add would
// fold key by key.
func DigestOf(keys []int64) Digest {
	var s0, s1, s2, s3, x0, x1, x2, x3 uint64
	n := len(keys) &^ 3
	for i := 0; i < n; i += 4 {
		k := keys[i : i+4 : i+4]
		h0, h1, h2, h3 := MixKey(k[0]), MixKey(k[1]), MixKey(k[2]), MixKey(k[3])
		s0, s1, s2, s3 = s0+h0, s1+h1, s2+h2, s3+h3
		x0, x1, x2, x3 = x0^h0, x1^h1, x2^h2, x3^h3
	}
	for _, v := range keys[n:] {
		h := MixKey(v)
		s0 += h
		x0 ^= h
	}
	return Digest{Sum: s0 + s1 + s2 + s3, Xor: x0 ^ x1 ^ x2 ^ x3}
}

// SlotBound is slot idx's term in the aggregate digest a view carries
// (View.Dig): the slot's multiset digest d mixed with its index. The
// aggregate, the Merge of every held slot's term, is then bound to the
// slots the blocks are filed under, so a view whose blocks trade places
// no longer matches it (ABFT's weighted checksums tie each block to its
// position the same way). Φ_F keeps the unbound fold, because keys
// legitimately move between slots within a stage.
func SlotBound(idx int, d Digest) Digest {
	k := MixKey(int64(idx))
	return Digest{Sum: MixKey(int64(d.Sum ^ k)), Xor: MixKey(int64(d.Xor + k))}
}

// DigestCompareCost is the virtual comparisons charged for one digest
// check: the Sum and Xor word comparisons. Fast paths charge this
// instead of the element-level scan they replace, keeping vcomp
// faithful to the work actually performed.
const DigestCompareCost = 2
