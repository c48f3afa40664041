// Command benchcheck gates one illixr-bench report (or one Chrome trace
// from illixr-run -trace-out): it decodes the file into the report type
// that wrote it and runs that type's Check method — the assertions
// themselves live in internal/bench, next to the structs they read.
//
// Usage: benchcheck <kind> <file>
//
// Kinds: parallel network qos trace.
package main

import (
	"fmt"
	"os"

	"illixr/internal/bench"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck <kind> <file>")
		os.Exit(2)
	}
	kind, file := os.Args[1], os.Args[2]
	failed, err := bench.CheckFile(kind, file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	for _, e := range failed {
		fmt.Fprintf(os.Stderr, "benchcheck %s: FAIL %v\n", kind, e)
	}
	if len(failed) > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchcheck %s: %s OK\n", kind, file)
}
