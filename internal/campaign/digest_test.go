package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/faults"
)

// recordDigest is the SHA-256 over the canonical wire form of every
// record of one area, in record order.
func recordDigest(t *testing.T, recs []*Record) string {
	t.Helper()
	h := sha256.New()
	for _, r := range recs {
		b, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRecordDigests pins the exact record bytes of clean and
// fault-injected runs: timelines, analyses, throughput series,
// MeasCount and, on the faulted side, the Salvage report. The aggregate
// goldens only see clean runs through a figure's lens; these digests
// hold every field of every record, so any change to the run path that
// moves a byte of output fails here.
func TestRecordDigests(t *testing.T) {
	rates := faults.Profile(0.05)
	cases := []struct {
		name   string
		seed   int64
		faults *faults.Rates
		want   string
	}{
		{"clean/seed42", 42, nil, "f5e73388808eafdfa0b41704f55d3c4393d7e3f153b8fa1da7306fc65bd36ad9"},
		{"clean/seed7919", 7919, nil, "50c19f6642137350b6e7809b15308a2b8b6c4af8e6c36161b1389215c6bf0e5c"},
		{"faulted/seed42", 42, &rates, "1d943c824c55fffd0a8a9be5d6851fbcad86f46804764e165fc448892d08e0dc"},
		{"faulted/seed7919", 7919, &rates, "a8fa71b6bc92ae8929f392ea15340c110139426e9f1fd65cb653afa8c8175afb"},
	}
	// One SA and one NSA operator, so runs of both engines are pinned.
	areas := []deploy.AreaSpec{deploy.AreasFor("OPT")[1], deploy.AreasFor("OPA")[0]}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := sha256.New()
			for _, spec := range areas {
				opts := Options{Seed: c.seed, Duration: 240 * time.Second, RunScale: 0.25,
					KeepSpeeds: true, FaultRates: c.faults}
				h.Write([]byte(recordDigest(t, runOneArea(t, spec, opts).Records)))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("record digest = %s, want %s", got, c.want)
			}
		})
	}
}
