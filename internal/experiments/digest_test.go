package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/campaign"
)

// generatorDigest is the SHA-256 over every generator's ID, its lines
// and its named values in key order, each value by its exact bits.
func generatorDigest(c *Context) string {
	h := sha256.New()
	for _, g := range All() {
		res := g.Run(c)
		fmt.Fprintf(h, "%s\x00", res.ID)
		for _, line := range res.Lines {
			fmt.Fprintf(h, "%s\n", line)
		}
		for _, k := range sortedKeys(res.Values) {
			fmt.Fprintf(h, "%s=%016x\n", k, math.Float64bits(res.Values[k]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigests pins the output of every generator at the
// cmd/campaign golden scale, at several worker counts. The CLI goldens
// cover only fig6 and table3; this digest also holds the generators
// that run their own simulation sweeps (fig12, fig20–22, mitigation,
// f12, walk, apps, ablation), so any change that moves one of their
// bytes — or makes them depend on the worker count — fails here.
func TestGeneratorDigests(t *testing.T) {
	const want = "5ee3f70e082e8f38e3ee4dd26f43fc22a9966bee7001876d1a1b499de66c3aee"
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := NewContext(campaign.Options{Seed: 42, RunScale: 0.05, Duration: 40 * time.Second, Workers: workers})
			if got := generatorDigest(c); got != want {
				t.Errorf("generator digest = %s, want %s", got, want)
			}
		})
	}
}
