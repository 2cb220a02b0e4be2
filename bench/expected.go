package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// expectedFile records the simulation workloads' outputs per seed.
const expectedFile = "bench/testdata/expected.json"

// expectations maps a decimal seed to each simulation workload's
// recorded output: the JSON form of the op's output for the DES
// workloads, and the SHA-256 of it for figures, whose default-seed
// values the golden figures hold in full.
type expectations map[string]map[string]json.RawMessage

// loadExpected reads the recorded outputs.
func loadExpected(root string) (expectations, error) {
	raw, err := os.ReadFile(filepath.Join(root, expectedFile))
	if err != nil {
		return nil, fmt.Errorf("loading recorded outputs: %w", err)
	}
	var e expectations
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedFile, err)
	}
	return e, nil
}

// recordForm is the form an output is recorded and compared in. JSON
// numbers round-trip float64 exactly, so equal forms are bit-identical
// outputs.
func recordForm(workload string, out any) (json.RawMessage, error) {
	b, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	if workload == "figures" {
		sum := sha256.Sum256(b)
		return json.Marshal("sha256:" + hex.EncodeToString(sum[:]))
	}
	return b, nil
}

// check compares an op's output with the recorded output for seed. A
// seed without a record passes with a note on stderr: its ops are still
// checked against each other and against the traced rebuild.
func (e expectations) check(seed uint64, workload string, out any) error {
	want, ok := e[strconv.FormatUint(seed, 10)][workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: no recorded %s output for seed %d; ops are checked against each other only\n", workload, seed)
		return nil
	}
	got, err := recordForm(workload, out)
	if err != nil {
		return err
	}
	var w bytes.Buffer
	if err := json.Compact(&w, want); err != nil {
		return fmt.Errorf("%s: seed %d %s: %w", expectedFile, seed, workload, err)
	}
	if !bytes.Equal(got, w.Bytes()) {
		return fmt.Errorf("output %s differs from the recorded %s", got, w.Bytes())
	}
	return nil
}

// writeExpected records every simulation workload's output for seeds
// 0..n-1. Run it only after a change that is meant to alter simulated
// results, and review the diff.
func writeExpected(root string, n int) error {
	e := expectations{}
	for seed := uint64(0); seed < uint64(n); seed++ {
		rec := map[string]json.RawMessage{}
		for _, w := range workloads {
			if w.setup == nil {
				continue
			}
			inst, err := w.setup(seed, root)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			out, err := inst.op()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if rec[w.name], err = recordForm(w.name, out); err != nil {
				return err
			}
		}
		e[strconv.FormatUint(seed, 10)] = rec
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, expectedFile), append(b, '\n'), 0o644)
}
