package repo

import (
	"testing"

	"tupelo/internal/datagen"
)

// TestHashValuesPinned pins one PairKey byte for byte: the key names the
// entry's file on disk, so a repository written by an earlier build must
// still hit.
func TestHashValuesPinned(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(8)
	const want = "38c966f3485c9ad5f88048a4b69e7f38fc8d6606b3c8b8d81a22a4ac55a4a2e3"
	if got := PairKey(src, tgt); got != want {
		t.Errorf("PairKey = %s, want %s", got, want)
	}
}
