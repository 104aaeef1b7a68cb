//go:build !go1.24

package mem

// onCollect has nothing to arrange before Go 1.24, which added
// runtime.AddCleanup: big backings are then allocated and zeroed by every
// Map and never recycled.
func onCollect(*Memory, *Segment) (stop func()) { return nil }
