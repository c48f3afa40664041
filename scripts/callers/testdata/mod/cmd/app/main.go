// Command app is the fixture's one caller outside internal/.
package main

import (
	"fmt"

	"fixture/internal/a"
	"fixture/internal/b"
)

func main() {
	fmt.Println(a.Red, a.Used(), a.Compute(), b.Total([]b.Shape{a.Square{Side: 2}}))
}
