package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestModuleHasNoUncalledExports is the caller rule's gate: every object
// under internal/ has a non-test caller (an exported one outside its own
// package), or a line in allow.txt that says which ROADMAP item or test
// holds it, and every line of allow.txt still matches a finding.
func TestModuleHasNoUncalledExports(t *testing.T) {
	start := time.Now()
	problems, err := checkModule(filepath.Join("..", ".."), "allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	t.Logf("checked in %v", time.Since(start).Round(time.Millisecond))
}

// TestFixtureFindings runs the tool on testdata/mod, a module with one
// object of each kind: a dead export, a dead unexported helper and a
// local export are reported; a method that implements a module interface,
// a String reached only through fmt, a type named only in an exported
// signature and a package only tests import are not.
func TestFixtureFindings(t *testing.T) {
	got, err := Find(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Finding{
		{Dead, "a.Dead", "internal/a/a.go:5"},
		{Local, "a.Local", "internal/a/a.go:11"},
		{Dead, "a.deadHelper", "internal/a/a.go:8"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n got %+v\nwant %+v", got, want)
	}
}

// TestCheckFailsBothWays: an unlisted finding and a line that matches no
// finding each fail the check and are named; a line without a reason
// fails too.
func TestCheckFailsBothWays(t *testing.T) {
	findings := []Finding{{Dead, "a.Dead", "internal/a/a.go:5"}, {Local, "a.Local", "internal/a/a.go:11"}}
	allow := parseAllow(t, "# comment\n\na.Local  # test reference\na.Gone  # ROADMAP 9\na.Bare\n")
	got := check(findings, allow)
	want := []string{
		allowPath + ":5: a.Bare has no reason",
		"dead a.Dead (internal/a/a.go:5): delete it, unexport it, or list it in " + allowPath,
		allowPath + ":4: a.Gone matches no finding: delete the line",
		allowPath + ":5: a.Bare matches no finding: delete the line",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("problems:\n got %q\nwant %q", got, want)
	}
	if got := check(findings, parseAllow(t, "a.Dead # test reference\na.Local # ROADMAP 5\n")); len(got) != 0 {
		t.Errorf("a full allowlist fails: %q", got)
	}
}

func parseAllow(t *testing.T, text string) []allowLine {
	t.Helper()
	lines, err := readAllow(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestFixtureStaleLine runs the whole check on the fixture against an
// allow.txt that lists its three findings and one name that is gone.
func TestFixtureStaleLine(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allow.txt")
	text := "a.Dead  # test reference\na.Local  # test reference\na.deadHelper  # test reference\na.Gone  # test reference\n"
	if err := os.WriteFile(allow, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := checkModule(filepath.Join("testdata", "mod"), allow)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "a.Gone matches no finding") {
		t.Errorf("problems = %q, want one naming a.Gone", problems)
	}
}
