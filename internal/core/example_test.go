package core_test

import (
	"fmt"

	"sensoragg/internal/core"
)

// ExampleMedian runs the Fig. 1 deterministic search over a local
// reference net — the smallest possible use of the paper's algorithm.
func ExampleMedian() {
	net := core.NewLocalNet([]uint64{17, 3, 99, 42, 8}, 100)
	res, err := core.Median(net)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Values[0])
	// Output: 17
}

// ExampleOrderStatistic shows the §3.4 generalization: any rank.
func ExampleOrderStatistic() {
	net := core.NewLocalNet([]uint64{17, 3, 99, 42, 8}, 100)
	for k := uint64(1); k <= 5; k++ {
		res, err := core.OrderStatistic(net, k)
		if err != nil {
			panic(err)
		}
		fmt.Print(res.Values[0], " ")
	}
	// Output: 3 8 17 42 99
}

// ExampleApxMedian2 runs the polyloglog algorithm (Fig. 4) end to end on a
// deterministic seed.
func ExampleApxMedian2() {
	values := make([]uint64, 1000)
	for i := range values {
		values[i] = uint64(i * 64) // evenly spread over [0, 64000]
	}
	net := core.NewLocalNet(values, 1<<16, core.WithLocalSeed(7))
	res, err := core.ApxMedian2(net, core.Apx2Params{Beta: 1.0 / 32, Epsilon: 0.25})
	if err != nil {
		panic(err)
	}
	// The output localizes the median (true value 31936) within β·X ≈ 2048
	// in value, up to the α rank error of Theorem 4.7.
	fmt.Println(res.Stages >= 4, res.FinalHi > res.FinalLo)
	// Output: true true
}

// ExampleIsMedian shows the Definition 2.3 validator used throughout the
// test suite.
func ExampleIsMedian() {
	sorted := []uint64{1, 2, 2, 7, 9, 11}
	fmt.Println(core.IsMedian(sorted, 2), core.IsMedian(sorted, 7))
	// Output: true false
}
