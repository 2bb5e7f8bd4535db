package ds

// GrowClear returns s with length n and every element zeroed, reusing
// its capacity when it has enough. The broadcast scheduler's run
// buffers and the dominating-tree packer's per-guess arrays resize
// through it.
func GrowClear[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
