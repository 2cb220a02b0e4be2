package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/lint"
)

// TestTreeClean locks in a lint-clean tree: hidelint over the whole
// module must report nothing, so any new violation fails the build
// here as well as in the CI lint step.
func TestTreeClean(t *testing.T) {
	var buf bytes.Buffer
	n, err := run(&buf, "../..", "", "text", []string{"./..."})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 0 {
		t.Fatalf("tree has %d finding(s):\n%s", n, buf.String())
	}
}

// BenchmarkTree measures the whole-module hidelint run TestTreeClean
// gates on, so the cost of the static-analysis gate is tracked like
// any other hot path. It reports the run's two phases: load-ms/op
// walks, parses and type-checks the module (the standard library comes
// from compiler export data), and analyze-ms/op runs every analyzer,
// including the flow-aware CFG passes. Each iteration builds a fresh
// loader, so the package cache cannot hide the type-checking cost.
func BenchmarkTree(b *testing.B) {
	b.ReportAllocs()
	var load, analyze time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		loader, err := lint.NewLoader("../..")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := loader.Load("./...")
		if err != nil {
			b.Fatal(err)
		}
		loaded := time.Now()
		diags, err := lint.RunAnalyzers(pkgs, lint.All())
		if err != nil {
			b.Fatal(err)
		}
		load += loaded.Sub(start)
		analyze += time.Since(loaded)
		if len(diags) != 0 {
			b.Fatalf("tree has %d finding(s) during bench", len(diags))
		}
	}
	b.ReportMetric(float64(load)/float64(b.N)/1e6, "load-ms/op")
	b.ReportMetric(float64(analyze)/float64(b.N)/1e6, "analyze-ms/op")
}

// TestFixtureFindings drives the CLI seam over a known-bad fixture
// package and expects a non-zero finding count, the condition under
// which main exits non-zero.
func TestFixtureFindings(t *testing.T) {
	var buf bytes.Buffer
	n, err := run(&buf, "../..", "errdrop", "text", []string{"./internal/lint/testdata/src/errdrop"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n == 0 {
		t.Fatal("bad fixture produced no findings")
	}
	if out := buf.String(); !strings.Contains(out, "(errdrop)") {
		t.Errorf("diagnostics missing check name:\n%s", out)
	}
}

// TestJSONFormat decodes every emitted line back into the wire shape:
// one object per finding with check, position, and message populated.
func TestJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	n, err := run(&buf, "../..", "errdrop", "json", []string{"./internal/lint/testdata/src/errdrop"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != n {
		t.Fatalf("got %d JSON lines for %d findings:\n%s", len(lines), n, buf.String())
	}
	for _, line := range lines {
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
		if f.Check != "errdrop" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
}

// TestGitHubFormat checks the workflow-command shape GitHub parses
// into inline PR annotations.
func TestGitHubFormat(t *testing.T) {
	var buf bytes.Buffer
	n, err := run(&buf, "../..", "errdrop", "github", []string{"./internal/lint/testdata/src/errdrop"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n == 0 {
		t.Fatal("bad fixture produced no findings")
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.HasPrefix(line, "::error file=") || !strings.Contains(line, "title=hidelint/errdrop::") {
			t.Errorf("malformed annotation: %q", line)
		}
	}
}

// TestUnknownFormat exercises the format-validation path.
func TestUnknownFormat(t *testing.T) {
	if _, err := run(io.Discard, "../..", "", "yaml", []string{"./..."}); err == nil {
		t.Fatal("unknown format accepted, want error")
	}
}

// TestUnknownCheck exercises the usage-error path.
func TestUnknownCheck(t *testing.T) {
	if _, err := run(io.Discard, "../..", "nope", "text", []string{"./..."}); err == nil {
		t.Fatal("unknown check accepted, want error")
	}
}
