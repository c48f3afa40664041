// Package a holds one object of each kind the caller rule tells apart.
package a

// Dead has no caller but its test: a dead export.
func Dead() {}

// deadHelper has no caller at all: a dead unexported name.
func deadHelper() {}

// Local has a caller only inside this package.
func Local() int { return 1 }

// Used is called from cmd/app.
func Used() int { return Local() + 1 }

// Square reaches cmd/app only as a b.Shape: its Area is exempt.
type Square struct{ Side float64 }

// Area implements b.Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Color reaches cmd/app only through fmt.Println: its String is exempt.
type Color int

// Red is the one Color.
const Red Color = 1

func (c Color) String() string { return "red" }

// Result is named only in Compute's signature, and cmd/app calls Compute.
type Result struct{ N int }

// Compute returns a Result.
func Compute() Result { return Result{N: 2} }
