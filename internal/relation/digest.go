package relation

import "encoding/binary"

// digest128 is the 128-bit mixing function behind Relation.Hash and
// Database.Key. State identity is the hottest path in the search — every
// generated successor is keyed to find its canonical state — and a
// cryptographic hash there is pure overhead: nothing is adversarial
// about the inputs, only accidental collisions matter. digest128 runs two
// independent 64-bit lanes over the buffer, each absorbing 8 bytes per step
// through a multiply + splitmix64 finalizer, which is an order of magnitude
// cheaper than SHA-256 on the short buffers relations encode to.
//
// Properties relied upon elsewhere:
//   - deterministic across processes (no per-run seed), so hashes can be
//     logged, compared between runs, and reproduced in tests;
//   - 128-bit output, keeping the birthday bound far beyond any reachable
//     state count (2⁶⁴ states before collisions become likely — runs explore
//     < 2³⁰);
//   - injective input encoding is the caller's job (length prefixes, count
//     separators), exactly as it was for the SHA-256 it replaced.
func digest128(b []byte) [16]byte {
	const (
		k0 = 0x9e3779b97f4a7c15 // golden-ratio odd constant
		k1 = 0xbf58476d1ce4e5b9 // splitmix64 multiplier
	)
	h0 := mix64(uint64(len(b)+1) * k0)
	h1 := mix64(uint64(len(b)+2) * k1)
	for len(b) >= 8 {
		x := binary.LittleEndian.Uint64(b)
		b = b[8:]
		h0 = mix64(h0 ^ (x * k1))
		h1 = mix64(h1 ^ (x * k0))
	}
	if len(b) > 0 {
		var tail uint64
		for i := len(b) - 1; i >= 0; i-- {
			tail = tail<<8 | uint64(b[i])
		}
		// Tag the tail with its length so "abc" and "abc\x00" differ even
		// though both leave the same absorbed prefix.
		tail |= uint64(len(b)) << 56
		h0 = mix64(h0 ^ (tail * k1))
		h1 = mix64(h1 ^ (tail * k0))
	}
	// Cross the lanes once so each output half depends on every input byte.
	h0, h1 = mix64(h0^h1), mix64(h1+h0)
	var out [16]byte
	binary.LittleEndian.PutUint64(out[0:8], h0)
	binary.LittleEndian.PutUint64(out[8:16], h1)
	return out
}

// leUint64 and putLeUint64 are local aliases so digest consumers don't
// re-import encoding/binary.
func leUint64(b []byte) uint64       { return binary.LittleEndian.Uint64(b) }
func putLeUint64(b []byte, x uint64) { binary.LittleEndian.PutUint64(b, x) }

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
