package lint

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// golden cases: each corpus under testdata/ is a self-contained module.
// rules nil means "run everything", which the suppression corpus uses to
// prove that only the relevant diagnostics survive.
var goldenCases = []struct {
	dir   string
	rules []string
}{
	{"detrange", []string{"detrange"}},
	{"wallclock", []string{"wallclock"}},
	{"globalrand", []string{"globalrand"}},
	{"floateq", []string{"floateq"}},
	{"mutexcopy", []string{"mutexcopy"}},
	{"guardedfield", []string{"guardedfield"}},
	{"erraudit", []string{"erraudit"}},
	{"sleeppoll", []string{"sleeppoll"}},
	{"lockorder", []string{"lockorder"}},
	{"lockedcall", []string{"lockedcall"}},
	{"suppress", nil},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.dir, func(t *testing.T) {
			root := filepath.Join("testdata", tc.dir)
			diags, err := Run(root, tc.rules)
			if err != nil {
				t.Fatalf("Run(%s): %v", root, err)
			}
			// Diagnostic filenames are recorded relative to the module root
			// passed to Run, so they are already stable golden keys.
			var buf bytes.Buffer
			for _, d := range diags {
				fmt.Fprintf(&buf, "%s:%d:%d: %s: %s\n",
					filepath.ToSlash(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
			}
			goldenPath := filepath.Join(root, "expect.golden")
			if *update {
				if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s",
					goldenPath, buf.Bytes(), want)
			}
		})
	}
}

// TestGoldenPositives guards against the analyzer silently going blind: every
// rule corpus must produce at least one diagnostic of its own rule.
func TestGoldenPositives(t *testing.T) {
	for _, tc := range goldenCases {
		if tc.rules == nil {
			continue
		}
		rule := tc.rules[0]
		diags, err := Run(filepath.Join("testdata", tc.dir), tc.rules)
		if err != nil {
			t.Fatalf("Run(%s): %v", tc.dir, err)
		}
		found := false
		for _, d := range diags {
			if d.Rule == rule {
				found = true
			} else {
				t.Errorf("%s corpus: unexpected rule %s at %s", tc.dir, d.Rule, d.Pos)
			}
		}
		if !found {
			t.Errorf("%s corpus produced no %s diagnostics; positive cases lost", tc.dir, rule)
		}
	}
}

// TestSuppressionSemantics spells out the contract the suppress corpus
// encodes: a reasoned allow swallows the diagnostic, a reason-less or
// unknown-rule allow is itself reported and suppresses nothing.
func TestSuppressionSemantics(t *testing.T) {
	diags, err := Run(filepath.Join("testdata", "suppress"), nil)
	if err != nil {
		t.Fatal(err)
	}
	byRule := map[string]int{}
	for _, d := range diags {
		byRule[d.Rule]++
	}
	// Missing reason + unknown rule, plus two stale-but-well-formed allows
	// (WrongLine's misplaced allow and Stale's never-matching one) that the
	// full-catalog run reports as dead suppressions.
	if byRule["badallow"] != 4 {
		t.Errorf("badallow count = %d, want 4 (missing reason, unknown rule, two stale)", byRule["badallow"])
	}
	// NoReason, UnknownRule and WrongLine each still leak their wallclock
	// diagnostic; only Allowed is suppressed.
	if byRule["wallclock"] != 3 {
		t.Errorf("wallclock count = %d, want 3 (one per failed suppression)", byRule["wallclock"])
	}
}

// TestRepoIsClean lints the real module. Any unsuppressed diagnostic in the
// tree is a test failure, which is what makes the gate bite during `go test`
// as well as in CI.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	diags, err := Run(filepath.Join("..", ".."), nil)
	if err != nil {
		t.Fatalf("Run(repo root): %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestRuleNamesStable(t *testing.T) {
	want := []string{"detrange", "wallclock", "globalrand", "floateq", "mutexcopy",
		"guardedfield", "erraudit", "sleeppoll", "lockorder", "lockedcall"}
	got := RuleNames()
	if len(got) != len(want) {
		t.Fatalf("RuleNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RuleNames() = %v, want %v", got, want)
		}
	}
}

// TestJSONGolden pins the -json output schema and its ordering for a corpus
// with rule-specific context (lockorder's Chain): file, line, col, rule —
// the fields CI consumers are allowed to parse.
func TestJSONGolden(t *testing.T) {
	root := filepath.Join("testdata", "lockorder")
	diags, err := Run(root, []string{"lockorder"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join(root, "expect.json")
	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON output differs from %s\n--- got ---\n%s--- want ---\n%s",
			goldenPath, buf.Bytes(), want)
	}
}
