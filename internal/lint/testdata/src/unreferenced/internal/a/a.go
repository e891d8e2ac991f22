// Package a is the unreferenced analyzer's fixture. Every declaration the
// analyzer must report carries a want; every other one must stay silent.
package a

// Unused has no caller anywhere: reported.
func Unused() {} // want `func Unused is referenced by no non-test file`

// OnlyTests is called from a_test.go alone, which does not count: reported.
func OnlyTests() int { return 1 } // want `func OnlyTests is referenced by no non-test file`

// Limit is a constant nothing reads: reported.
const Limit = 3 // want `const Limit is referenced by no non-test file`

// Shape is an interface the program converts to.
type Shape interface {
	Area() float64
	Name() string
}

// base supplies Name to the types that embed it; base alone is no Shape.
type base struct{}

// Name satisfies Shape only through Square's embedding of base: silent.
func (base) Name() string { return "square" }

// Square is a Shape: Area is its own, Name is promoted from base.
type Square struct {
	base
	Side float64
}

// Area satisfies Shape directly: silent.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is in no interface and nothing calls it: reported.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want `method Square.Perimeter is referenced by no non-test file`

// Shapes is read by the nested module.
func Shapes() []Shape { return []Shape{Square{Side: 2}} }

// Config has one field the nested module sets and one nothing names.
type Config struct {
	Used   int
	Unused int // want `field Config.Unused is referenced by no non-test file`
}

// Reference is kept behind the escape hatch: silent.
//
//lint:ignore unreferenced the reference implementation a test compares against
func Reference() {}

// UsedByNested is referenced only from the nested module, which counts:
// silent.
func UsedByNested() int { return 2 }
