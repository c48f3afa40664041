// Package b names the interface Square implements.
package b

// Shape is a module interface: its implementers' Area methods are exempt.
type Shape interface{ Area() float64 }

// Total sums the areas.
func Total(shapes []Shape) float64 {
	var t float64
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}
