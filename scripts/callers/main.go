// Command callers enforces the caller rule: every object declared under
// internal/ has a caller in non-test code, and an exported one has a
// caller outside its own package. It type-checks the module's non-test
// files (go list, go/parser, go/types) and reports each package-level
// func, type, var and const, and each method of a named type, of two
// kinds:
//
//   - dead: no non-test file of the module uses it, exported or not;
//   - local: it is exported, and non-test code uses it only inside its
//     own package.
//
// Callers are the non-test files of every package in the module: cmd/,
// examples/, benchmark/, scripts/ and internal/ itself. A use inside the
// object's own declaration, or of a type inside its own methods, does
// not count; test files never count. Exempt:
//
//   - a method that implements a method of an interface the module's
//     non-test code names, or of a standard-library interface a value
//     reaches through an any or a library call: error, fmt.Stringer,
//     json.Marshaler and Unmarshaler, flag.Value, sort.Interface,
//     heap.Interface, http.Handler and every interface of package io,
//     and the Unwrap, Is and As methods of an error type, which
//     errors.Is and errors.As call;
//   - a type counts as used outside its package when it is named there,
//     when one of its fields or methods is selected there, or when it
//     appears in the type of an object used there; a struct's exported
//     fields are part of its type;
//   - every object of a package that only test files import;
//   - struct fields, which are not objects here.
//
// scripts/callers/allow.txt lists the findings that stay, one per line,
// "pkg.Name  # reason", where pkg is the path below internal/ and the
// reason is the ROADMAP item that will give the name a caller, or "test
// reference" for an implementation a test compares against. The check
// fails on a finding the file does not list and on a line that matches
// no finding.
//
// Usage, from the repository root:
//
//	go run ./scripts/callers
//
// It prints one line per failure and exits 1 if there is any, 2 if the
// module does not load. TestModuleHasNoUncalledExports runs the same
// check under go test ./...
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// allowPath is the allowlist, relative to the module root.
const allowPath = "scripts/callers/allow.txt"

func main() {
	problems, err := checkModule(".", allowPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "callers:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// checkModule runs the check on the module rooted at dir against the
// allowlist in allowFile.
func checkModule(dir, allowFile string) ([]string, error) {
	findings, err := Find(dir)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(allowFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow, err := readAllow(f)
	if err != nil {
		return nil, err
	}
	return check(findings, allow), nil
}

// allowLine is one line of allow.txt.
type allowLine struct {
	line   int
	name   string
	reason string
}

func readAllow(r io.Reader) ([]allowLine, error) {
	var out []allowLine
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, "#")
		out = append(out, allowLine{n, strings.TrimSpace(name), strings.TrimSpace(reason)})
	}
	return out, sc.Err()
}

// check returns one line per finding allow does not list, and per line
// of allow that is malformed or matches no finding.
func check(findings []Finding, allow []allowLine) []string {
	var problems []string
	listed := map[string]bool{}
	for _, a := range allow {
		switch {
		case a.reason == "":
			problems = append(problems, fmt.Sprintf("%s:%d: %s has no reason", allowPath, a.line, a.name))
		case listed[a.name]:
			problems = append(problems, fmt.Sprintf("%s:%d: %s is listed twice", allowPath, a.line, a.name))
		}
		listed[a.name] = true
	}
	found := map[string]bool{}
	for _, f := range findings {
		found[f.Name] = true
		if !listed[f.Name] {
			problems = append(problems, fmt.Sprintf("%s %s (%s): delete it, unexport it, or list it in %s",
				f.Kind, f.Name, f.Pos, allowPath))
		}
	}
	for _, a := range allow {
		if !found[a.name] {
			problems = append(problems, fmt.Sprintf("%s:%d: %s matches no finding: delete the line", allowPath, a.line, a.name))
		}
	}
	return problems
}
