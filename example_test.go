package fela_test

import (
	"fmt"
	"log"
	"time"

	"fela"
)

// ExampleSimulate partitions VGG19 with the paper's bin-partitioned
// method, runs one tuned Fela training on the simulated 8-node testbed
// and prints the measured throughput.
func ExampleSimulate() {
	m := fela.VGG19()
	fmt.Printf("model: %s — %d weight layers, %.1f M parameters\n", m.Name, m.WeightLayerCount(), float64(m.Params())/1e6)

	// Offline model partition (§IV-A): bins of threshold batch sizes.
	for _, sm := range fela.Partition(m) {
		fmt.Printf("  %-22s threshold batch %4d, %7.1f MB parameters\n",
			sm.Name, sm.ThresholdBatch, float64(sm.ParamBytes())/1e6)
	}

	// The two-phase tuner (§IV-B) picks the parallelism weights and the
	// CTD subset, then 20 BSP iterations run under ADS+HF+CTD.
	res, err := fela.Simulate(fela.SimConfig{Model: m, TotalBatch: 256, Iterations: 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFela on the 8-node K40c testbed, batch 256:\n")
	fmt.Printf("  avg iteration time: %.3f s\n", res.AvgIterTime())
	fmt.Printf("  avg throughput:     %.1f samples/s (Eq. 3)\n", res.AvgThroughput())
	fmt.Printf("  network payload:    %.0f MB/iteration\n", float64(res.BytesSent)/float64(res.Iterations)/1e6)
	// Output:
	// model: VGG19 — 19 weight layers, 143.7 M parameters
	//   VGG19/SM-1[L1-8]       threshold batch   16,     9.3 MB parameters
	//   VGG19/SM-2[L9-16]      threshold batch   64,    70.8 MB parameters
	//   VGG19/SM-3[L17-19]     threshold batch 2048,   494.6 MB parameters
	//
	// Fela on the 8-node K40c testbed, batch 256:
	//   avg iteration time: 2.431 s
	//   avg throughput:     105.3 samples/s (Eq. 3)
	//   network payload:    1144 MB/iteration
}

// ExampleTrace_Timeline draws Fela's token schedule as an ASCII Gantt
// chart: two iterations of VGG19, first without and then with a
// straggler, showing compute (C), fetches (F), synchronizations (S) and
// the injected sleep (Z), and how helpers absorb the straggler's work.
func ExampleTrace_Timeline() {
	cfg := fela.SimConfig{
		Model: fela.VGG19(), TotalBatch: 256, Iterations: 2,
		Weights: []int{1, 1, 8}, SubsetSize: 1,
	}
	for _, title := range []string{
		"Fela schedule, no stragglers (VGG19, batch 256, 2 iterations):",
		"\nsame run with a 2s round-robin straggler (Z = injected sleep):",
	} {
		_, tr, err := fela.SimulateTraced(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(title)
		fmt.Print(tr.Timeline(100))
		cfg.Scenario = fela.RoundRobinStraggler(2, 8) // for the second run
	}
	fmt.Println("\nnote how the sleeping worker's row shows Z while the others keep")
	fmt.Println("computing — its tokens were pulled by helpers (HF policy, §III-E).")
	// Output:
	// Fela schedule, no stragglers (VGG19, batch 256, 2 iterations):
	// timeline 250µs..4.918s, 49.2ms/cell (C=compute F=fetch S=sync Z=sleep X=fault J=join L=leave)
	// w0  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCSSSCCCSCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCSSSCCCS|
	// w1  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC..SSSS..CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC....SSSS...|
	// w2  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC.....SSSS..CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC...SSSS...|
	// w3  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC...SSSS..CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC....SSSS...|
	// w4  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC...SSSS..CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC....SSSS...|
	// w5  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC....SSSS..CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC......SSSS...|
	// w6  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC....SSSS..CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC.....SSSS...|
	// w7  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC..SSSS..CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC....SSSS...|
	//
	// same run with a 2s round-robin straggler (Z = injected sleep):
	// timeline 0s..6.361s, 63.6ms/cell (C=compute F=fetch S=sync Z=sleep X=fault J=join L=leave)
	// w0  |ZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZCCC..SS......SSFCCSCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC...S......SSSCCS|
	// w1  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC.....SS......SSS..ZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZ.....CCCCCCCCSSS..|
	// w2  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCS......SSS..CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC.....S......SSSS..|
	// w3  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC......SS......SSS..CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC......SCCCCCCCSSS..|
	// w4  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC......SCCCCCCCCSS..CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC......S......SSSS..|
	// w5  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCC.......CCCCCCCCSSS..CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCS......SSSS..|
	// w6  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCS......SSS..CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC......SSSS..|
	// w7  |CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC.....SS......SSS..CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC......S......SSSS..|
	//
	// note how the sleeping worker's row shows Z while the others keep
	// computing — its tokens were pulled by helpers (HF policy, §III-E).
}

// ExamplePartition shows the offline bin-partitioned method on VGG19
// (§IV-A): three sub-models with increasing threshold batch sizes.
func ExamplePartition() {
	for _, sm := range fela.Partition(fela.VGG19()) {
		fmt.Printf("%s threshold=%d\n", sm.Name, sm.ThresholdBatch)
	}
	// Output:
	// VGG19/SM-1[L1-8] threshold=16
	// VGG19/SM-2[L9-16] threshold=64
	// VGG19/SM-3[L17-19] threshold=2048
}

// ExampleRTTrain demonstrates the reproducibility guarantee: real
// distributed training through the token scheduler, one worker a
// deliberate straggler, matches sequential SGD bit for bit.
func ExampleRTTrain() {
	mk := func() *fela.Network { return fela.NewMLP(1, 4, 8, 2) }
	ds := fela.SyntheticDataset(2, 32, 4, 2)
	cfg := fela.RTConfig{
		Workers: 2, TotalBatch: 16, TokenBatch: 4, Iterations: 3, LR: 0.1,
		// Worker 1 straggles 2 ms an iteration; worker 0 pulls its tokens.
		Delay: func(_, wid int) time.Duration { return time.Duration(wid) * 2 * time.Millisecond },
	}

	dist, err := fela.RTTrain(mk, ds, cfg)
	if err != nil {
		panic(err)
	}
	seq, err := fela.RTSequential(mk(), ds, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("bit-identical:", fela.ParamsEqual(dist, seq))
	// Output:
	// bit-identical: true
}

// ExampleRoundRobinStraggler shows the Figure 9 scenario: worker
// (iteration mod N) sleeps d seconds.
func ExampleRoundRobinStraggler() {
	s := fela.RoundRobinStraggler(6, 8)
	fmt.Println(s.Delay(3, 3), s.Delay(3, 4))
	// Output:
	// 6 0
}
