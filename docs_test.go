package illixr_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// citedTest matches a test, benchmark or fuzz name; a trailing * reads
	// it as a prefix
	citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	// runFlag matches a -run argument, whose names are prefixes too
	runFlag  = regexp.MustCompile("-run[= ]['\"]?([^\\s'\"`]+)")
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// TestDocsCiteExistingTests: every test, benchmark and fuzz name that
// DESIGN.md, README.md or EXPERIMENTS.md cites is a func in some _test.go
// of the repository, so a deleted or renamed test cannot stay cited.
// "Name*" and a name inside a -run argument match as prefixes.
func TestDocsCiteExistingTests(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string, prefix bool) bool {
		for _, f := range funcs {
			if f == name || prefix && strings.HasPrefix(f, name) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cited := 0
		for i, line := range strings.Split(string(src), "\n") {
			prefixes := map[string]bool{}
			for _, m := range runFlag.FindAllStringSubmatch(line, -1) {
				for _, alt := range strings.Split(m[1], "|") {
					prefixes[strings.Trim(alt, "^$()")] = true
				}
			}
			for _, name := range citedTest.FindAllString(line, -1) {
				cited++
				prefix := strings.HasSuffix(name, "*")
				name = strings.TrimSuffix(name, "*")
				if !exists(name, prefix || prefixes[name]) {
					t.Errorf("%s:%d cites %s, which no _test.go declares", doc, i+1, name)
				}
			}
		}
		if cited == 0 {
			t.Errorf("%s cites no test: is the pattern still right?", doc)
		}
	}
}

// docCeilings are the byte sizes DESIGN.md and README.md may not grow
// past. They only ever go down: lower one to the file's new size in the
// change that shrinks it. DESIGN.md's target is 45 KB (ROADMAP item 14).
var docCeilings = map[string]int64{"DESIGN.md": 91266, "README.md": 32923}

// TestDocsDoNotGrow fails when a ceilinged document grows past its
// ceiling, so new text has to displace old text.
func TestDocsDoNotGrow(t *testing.T) {
	for doc, ceiling := range docCeilings {
		st, err := os.Stat(doc)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > ceiling {
			t.Errorf("%s is %d bytes, past its %d-byte ceiling: trim it to make room", doc, st.Size(), ceiling)
		}
	}
}
