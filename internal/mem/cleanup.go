//go:build go1.24

package mem

import "runtime"

// onCollect arranges for recycleBacking(s) to run once m is unreachable
// and returns the func that cancels it.
func onCollect(m *Memory, s *Segment) (stop func()) {
	return runtime.AddCleanup(m, recycleBacking, s).Stop
}
