// Package noalloccorpus is the golden corpus for the noalloc analyzer: each
// flagged construct carries a // want assertion, and each recognized
// discipline idiom (growth guard, reslice, appender, alloc-ok escape) is
// present with no assertion — the harness fails on unexpected findings too.
package noalloccorpus

import "fmt"

type state struct{ scratch []int }

var sink any

func doNothing() {}

//topick:noalloc
func badMake(n int) []int {
	return make([]int, n) // want "make allocates"
}

//topick:noalloc
func badNew() *state {
	return new(state) // want "new allocates"
}

//topick:noalloc
func badLits() {
	_ = []int{1}         // want "slice literal allocates"
	_ = map[string]int{} // want "map literal allocates"
	sinkState(&state{})  // want "&composite literal allocates"
}

func sinkState(s *state) { _ = s }

//topick:noalloc
func badClosure(n int) func() int {
	return func() int { return n } // want "closure allocates"
}

//topick:noalloc
func badGo() {
	go doNothing() // want "go statement allocates a goroutine"
}

//topick:noalloc
func badDeferLoop(n int) {
	for i := 0; i < n; i++ {
		defer doNothing() // want "defer inside a loop allocates per iteration"
	}
}

//topick:noalloc
func badConcat(a, b string) string {
	return a + b // want "string concatenation allocates"
}

//topick:noalloc
func badConvToString(bs []byte) string {
	return string(bs) // want "conversion to string allocates"
}

//topick:noalloc
func badConvFromString(s string) []byte {
	return []byte(s) // want "string to .* conversion allocates"
}

//topick:noalloc
func badFmt(x int) {
	fmt.Println(x) // want "call into fmt allocates" "interface boxing of non-pointer value allocates"
}

//topick:noalloc
func badAppend(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x) // want "append without capacity discipline"
	}
	return out
}

//topick:noalloc
func badBoxAssign(x int) {
	sink = x // want "interface boxing of non-pointer value allocates"
}

//topick:noalloc
func badBoxReturn(x int) any {
	return x // want "interface boxing of non-pointer value allocates"
}

// allocHelper is unannotated; the analyzer reaches it from badTransitive and
// attributes the finding to that root.
func allocHelper() *int {
	return new(int) // want "new allocates in noalloccorpus.allocHelper .reached from //topick:noalloc noalloccorpus.badTransitive"
}

//topick:noalloc
func badTransitive() *int {
	return allocHelper()
}

// --- Recognized idioms: nothing below may produce a finding. ---

//topick:noalloc
func growthGuard(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

//topick:noalloc
func growthLoop(buf []int, n int) []int {
	for len(buf) < n {
		buf = append(buf, 0)
	}
	return buf
}

//topick:noalloc
func appender(dst []byte, b byte) []byte {
	return append(dst, b)
}

//topick:noalloc
func (s *state) reslice(n int) {
	buf := s.scratch[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	s.scratch = buf
}

//topick:noalloc
func escapedWithReason() []int {
	//topick:alloc-ok cold path, called once at startup
	return make([]int, 4)
}

//topick:noalloc
func escapedNoReason() []int {
	//topick:alloc-ok
	return make([]int, 4) // want "//topick:alloc-ok needs a reason"
}

// exemptFunc is whole-body exempt: the directive stops the scan.
//
//topick:alloc-ok whole function runs on the cold configuration path
func exemptFunc() []int {
	return make([]int, 8)
}

//topick:noalloc
func callsExempt() []int {
	return exemptFunc()
}

// exemptNoReason is exempt but must still explain itself.
//
//topick:alloc-ok
func exemptNoReason() { // want "function-level //topick:alloc-ok needs a reason"
	_ = make([]int, 3)
}

// contradictory carries both directives at once.
//
//topick:noalloc
//topick:alloc-ok it cannot be both
func contradictory() { // want "//topick:noalloc and //topick:alloc-ok on the same function contradict each other"
}

// panicArgs prunes panic arguments: a panicking hot path is already dead.
//
//topick:noalloc
func panicArgs(n int) {
	if n < 0 {
		panic(fmt.Sprintf("negative: %d", n))
	}
}

// bodyless is declared without a Go body, as an assembly kernel is: the call
// graph ends at it, so a root calling it has no finding.
func bodyless(dst []float32)

//topick:noalloc
func callsBodyless(dst []float32) {
	bodyless(dst)
}
