package compiler

import "whatsnext/internal/mem"

// AppendExtract appends the raw element values of array name, read back
// out of memory, to dst: the decode AppendOutputValues runs, without the
// PostShift. Tests read every kind of array back through it.
func (l *Layout) AppendExtract(dst []int64, m *mem.Memory, name string) ([]int64, error) {
	return appendElems(l, dst, m, name, 0)
}
