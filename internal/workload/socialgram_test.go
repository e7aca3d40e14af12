package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// csrDigest is the SHA-256 of a CSR's shape, RowPtr, ColIdx and the bits
// of Vals, each number little-endian in 8 bytes.
func csrDigest(m *sparse.CSR) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	for _, p := range m.RowPtr {
		put(uint64(p))
	}
	for _, j := range m.ColIdx {
		put(uint64(j))
	}
	for _, v := range m.Vals {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSocialGramPinnedDigests pins SocialGram's output bit for bit: the
// Gram matrix and the term–document matrix for two (terms, seed) pairs.
// The benchmark's mixed-small workload builds the (48, 8) system, and
// asyrgsd builds every socialgram spec through DefaultSocialGram, so any
// change to the generator's draws or arithmetic shows here first.
func TestSocialGramPinnedDigests(t *testing.T) {
	for _, c := range []struct {
		terms, gramNNZ int
		seed           uint64
		gram, termDoc  string
	}{
		{48, 1292, 8,
			"f4fa417fe5e0e34c9928998357c9f81165650b768bc8b8c67405407c9681f7c8",
			"e22ecd292d738729d5aa1c789948daa1d4712eac3b79b81dd4047d7d91f91946"},
		{300, 26086, 1,
			"41b454cc57d5bc39197ec501e147fbc390596fd62e812c2afd07c852148fc9e6",
			"67d7e7a18a5d56f5cc4e8c809b5f309b14f4ae5e2e4c52d525c1d743975f3eec"},
	} {
		t.Run(fmt.Sprintf("terms=%d,seed=%d", c.terms, c.seed), func(t *testing.T) {
			gram, termDoc := SocialGram(DefaultSocialGram(c.terms, c.seed))
			if gram.NNZ() != c.gramNNZ {
				t.Errorf("Gram nnz %d, want %d", gram.NNZ(), c.gramNNZ)
			}
			if got := csrDigest(gram); got != c.gram {
				t.Errorf("Gram digest %s, want %s", got, c.gram)
			}
			if got := csrDigest(termDoc); got != c.termDoc {
				t.Errorf("term-document digest %s, want %s", got, c.termDoc)
			}
		})
	}
}
