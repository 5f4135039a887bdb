package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
)

// ops tallies a run's operations: every one attempted, and the failed
// ones with a reason each.
type ops struct {
	attempted, failed int
	reasons           []string
}

// check records one operation, failed unless ok.
func (o *ops) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.reasons = append(o.reasons, fmt.Sprintf(format, args...))
	}
}

func (o *ops) add(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.reasons = append(o.reasons, p.reasons...)
}

// digester hashes a workload's outputs in a fixed order.
type digester struct{ h []byte }

func (d *digester) add(parts ...any) {
	for _, p := range parts {
		switch v := p.(type) {
		case float64:
			d.h = strconv.AppendFloat(d.h, v, 'g', -1, 64)
		default:
			d.h = fmt.Append(d.h, v)
		}
		d.h = append(d.h, 0)
	}
	d.h = append(d.h, '\n')
}

func (d *digester) sum() string {
	s := sha256.Sum256(d.h)
	return hex.EncodeToString(s[:])
}

// figuresSeedKey is the digest key of the figures workload, whose seeds
// are fixed inside the experiments.
const figuresSeedKey = "internal"

//go:embed expected.json
var expectedJSON []byte

// expected is the recorded output of every workload.
type expected struct {
	// Digests maps workload → seed (decimal, or figuresSeedKey) → the
	// output digest recorded for it.
	Digests map[string]map[string]string `json:"digests"`
	// KnownFidelityFailures lists, as "id: assertion", the fidelity
	// assertions the figures workload is known to fail. They are part of
	// its recorded output: each still prints on every run.
	KnownFidelityFailures []string `json:"known_fidelity_failures"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// checkDigest counts a pass's output digest as one operation. It must
// equal the digest recorded for its workload and seed; for a seed with
// none recorded it must equal the run's first pass, since the program
// is deterministic.
func (e *expected) checkDigest(o *ops, workload, seedKey, got, first string) {
	if want, ok := e.Digests[workload][seedKey]; ok {
		o.check(got == want, "%s seed %s: output digest %s, recorded %s", workload, seedKey, got, want)
		return
	}
	o.check(first == "" || got == first, "%s seed %s: output digest %s differs from the run's first pass %s", workload, seedKey, got, first)
}
