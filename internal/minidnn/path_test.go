package minidnn

import (
	_ "unsafe" // for go:linkname

	"fela/internal/tensor"
)

// useAVX2 is internal/tensor's kernel-path switch, set from CPUID at
// start-up. The tests here reach it by linkname so that each layer's
// bit-pattern suite runs on both paths.
//
//go:linkname useAVX2 fela/internal/tensor.useAVX2
var useAVX2 bool

// eachPath runs f once per kernel path this CPU has — the AVX2 tile
// when the process started on it, then the portable Go loops — and
// restores the path it found.
func eachPath(f func(path string)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	for _, on := range []bool{true, false} {
		if on && !saved {
			continue
		}
		useAVX2 = on
		f(tensor.KernelPath())
	}
}
