// Package demo is a tiny source tree for the reachability checker's own
// tests (reach_test.go): each function is reached, or not, by the
// fabricated linker dump those tests feed it.
package demo

// T carries a value-receiver method and a marker method.
type T struct{}

// Sealed is a sealed interface; isSealed is its empty marker method.
type Sealed interface{ isSealed() }

func (T) isSealed() {}

// Used is reached by name.
func Used() int { return 1 }

// Unused is reached by nothing.
func Unused() int { return 2 }

// Allowed is reached by nothing but allowlisted.
func Allowed() int { return 3 }

// Generic is reached through its instantiation Generic[go.shape.int].
func Generic[E any](e E) E { return e }

// Method is reached through the pointer wrapper (*T).Method.
func (T) Method() int { return 4 }

// Closure is reached through its closure Closure.func1.
func Closure() func() int { return func() int { return 5 } }
