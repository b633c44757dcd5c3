package heuristic

// LevenshteinDistance returns the least number of single-character
// insertions, deletions, and substitutions transforming a into b
// (Levenshtein 1965), computed with the classic dynamic program in O(|a|·|b|)
// time and O(min(|a|,|b|)) space.
//
// It is the reference implementation: hL estimates through editPattern,
// Myers' bit-parallel form of the same recurrence, and the tests hold that
// fast path to this one, the way Relation.Contains backs the containment
// index.
func LevenshteinDistance(a, b string) int {
	if a == b {
		return 0
	}
	// Work on bytes: TNF canonical strings are ASCII-safe for our data, and
	// byte-level distance is a valid metric regardless.
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitution
			if d := prev[j] + 1; d < m { // deletion
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insertion
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// editPatternStackBlocks is the longest pattern, in 64-byte blocks, whose
// vertical delta vectors distance keeps in stack arrays: 1,024 bytes, several
// times the canonical strings of the paper's Fig. 1 instances.
const editPatternStackBlocks = 16

// editPattern is a fixed string prepared for Myers' bit-parallel edit
// distance (J. ACM 46(3), 1999) in its block form: one DP column of 64
// cells per word operation instead of one cell per step. hL builds the
// target's pattern once; the pattern is immutable, so it needs no
// synchronization.
type editPattern struct {
	m      int // pattern length in bytes
	blocks int // ⌈m/64⌉
	// peq holds the match masks, 256 × blocks words: bit i of
	// peq[c·blocks + b] is set when byte 64·b + i of the pattern is c.
	peq []uint64
}

func newEditPattern(p string) *editPattern {
	blocks := (len(p) + 63) / 64
	ep := &editPattern{m: len(p), blocks: blocks, peq: make([]uint64, 256*blocks)}
	for i := 0; i < len(p); i++ {
		ep.peq[int(p[i])*blocks+i/64] |= 1 << uint(i%64)
	}
	return ep
}

// distance returns LevenshteinDistance(text, pattern). The pattern runs down
// the DP's rows and the text across its columns; each block carries the
// vertical deltas of its 64 rows as a positive (pv) and a negative (mv) bit
// vector, and passes the horizontal delta at its last row (+1, 0 or −1) to
// the block below. The distance is the bottom row's value, m at column 0,
// moved by the last block's outgoing delta at every column. Nothing is
// allocated for patterns up to editPatternStackBlocks blocks.
func (p *editPattern) distance(text string) int {
	if p.m == 0 {
		return len(text)
	}
	n := p.blocks
	var pvArr, mvArr [editPatternStackBlocks]uint64
	pv, mv := pvArr[:], mvArr[:]
	if n > editPatternStackBlocks {
		pv, mv = make([]uint64, n), make([]uint64, n)
	}
	pv, mv = pv[:n], mv[:n]
	for b := range pv {
		pv[b] = ^uint64(0) // column 0 is 0, 1, …, m: every vertical delta is +1
	}
	last := n - 1
	lastHigh := uint64(1) << uint((p.m-1)%64)
	score := p.m
	for i := 0; i < len(text); i++ {
		eqs := p.peq[int(text[i])*n : int(text[i])*n+n]
		hin := 1 // row 0 is 0, 1, …, len(text): +1 enters the top block
		for b, eq := range eqs {
			high := uint64(1) << 63
			if b == last {
				high = lastHigh
			}
			pvb, mvb := pv[b], mv[b]
			xv := eq | mvb
			if hin < 0 {
				eq |= 1
			}
			xh := (((eq & pvb) + pvb) ^ pvb) | eq
			ph := mvb | ^(xh | pvb)
			mh := pvb & xh
			hout := 0
			if ph&high != 0 {
				hout = 1
			} else if mh&high != 0 {
				hout = -1
			}
			ph <<= 1
			mh <<= 1
			if hin < 0 {
				mh |= 1
			} else if hin > 0 {
				ph |= 1
			}
			pv[b] = mh | ^(xv | ph)
			mv[b] = ph & xv
			hin = hout
		}
		score += hin
	}
	return score
}
