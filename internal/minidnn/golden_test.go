package minidnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestCNNGoldenSession pins a short train-compute-shaped session — the
// CNN on 3×32×32 images, two 16-sample tokens per iteration, plain SGD
// at the workload's learning rate — to the bits it ended with when
// every kernel was a scalar Go loop: the final parameters' hash and
// every token's loss. It runs on each kernel path the CPU has. The
// values are amd64's; another architecture may fuse a multiply-add the
// kernels do not control (math.Exp's, say).
func TestCNNGoldenSession(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are pinned on amd64")
	}
	const (
		wantParams = "274f5489aa2085e1cd7f35a449b32d1531ab61738f0ca46a43575e4f5a849777"
		wantLosses = "400e54bcb2ced644 400d3eea1d298456 4009f0d04ea62d6e 4008bfb592b0f46e 400693e1684b7b95 400543a5629e4342"
	)
	ds := SyntheticImages(22, 64, 3, 32, 32, 10)
	eachPath(func(path string) {
		net := NewCNN(21, 3, 32, 32, 16, 64, 10)
		var losses strings.Builder
		for it := 0; it < 3; it++ {
			for tok := 0; tok < 2; tok++ {
				lo := (32*it + 16*tok) % ds.Len()
				x, labels := ds.Batch(lo, lo+16)
				fmt.Fprintf(&losses, "%016x ", math.Float64bits(net.Loss(x, labels)))
			}
			net.SGDStep(3e-4)
		}
		h := sha256.New()
		for _, p := range net.Params() {
			for _, v := range p.Data {
				h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != wantParams {
			t.Errorf("%s: final parameters hash %s, want %s", path, got, wantParams)
		}
		if got := strings.TrimSpace(losses.String()); got != wantLosses {
			t.Errorf("%s: loss bits\n got %s\nwant %s", path, got, wantLosses)
		}
	})
}
