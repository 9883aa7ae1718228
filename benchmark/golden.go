package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
)

// golden.json pins, per workload, the digest of the simulated
// statistics at seed 1 and full scale. A run whose digest differs
// reports sim.digest_changed = 1 without failing: a fidelity PR is
// expected to move it (and to update the file), a host-only PR is not.
//
//go:embed golden.json
var goldenJSON []byte

func goldenDigests() (map[string]string, error) {
	g := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
