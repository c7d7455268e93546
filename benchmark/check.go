package main

import (
	"fmt"
	"io"
)

// checkScale is the share of each workload's frozen op count the self-check
// runs: enough ops to cross every path (fusion, seeding, heal, retry, audit),
// few enough to finish in seconds.
const checkScale = 0.01

// fingerprint is what must repeat exactly for a fixed (code, seed): the
// simulated counters and a digest of every answer value.
type fingerprint struct {
	bitsPerNode, totalKbits, sweeps float64
	answers                         int
	digest                          uint64
}

func fingerprintOf(m *measurement) fingerprint {
	v := endToEndValues(m)
	return fingerprint{v["bits_per_node"], v["total_kbits_per_op"], v["sweeps_per_op"], m.fixed.usable, m.fixed.digest}
}

// selfCheck runs every workload twice at seeds 1 and 2, in this process. The
// two passes of a seed must agree bit for bit — nothing the benchmark feeds
// the program, and nothing the simulator counts, may depend on timing or on
// what ran before — and the two seeds must disagree, or the seed is not
// reaching the inputs. Every answer must also be right.
func selfCheck(out io.Writer) error {
	for _, w := range workloads {
		var bySeed [2]fingerprint
		for s, seed := range []uint64{1, 2} {
			var passes [2]fingerprint
			for p := range passes {
				m, err := measure(w, seed, 0, checkScale)
				if err != nil {
					return err
				}
				if t := &m.all; t.usable != t.attempted || t.exact != t.known || t.known == 0 {
					return fmt.Errorf("%s seed %d: %d of %d answers usable, %d of %d exact", w.name, seed, t.usable, t.attempted, t.exact, t.known)
				}
				passes[p] = fingerprintOf(m)
			}
			if passes[0] != passes[1] {
				return fmt.Errorf("%s seed %d is not deterministic: %+v then %+v", w.name, seed, passes[0], passes[1])
			}
			bySeed[s] = passes[0]
			fmt.Fprintf(out, "%-7s seed %d  %d answers  bits/node %.6g  kbit/op %.6g  sweeps/op %.6g  digest %016x  (2 passes identical)\n",
				w.name, seed, passes[0].answers, passes[0].bitsPerNode, passes[0].totalKbits, passes[0].sweeps, passes[0].digest)
		}
		if bySeed[0] == bySeed[1] {
			return fmt.Errorf("%s: seeds 1 and 2 produced the same run: %+v", w.name, bySeed[0])
		}
	}
	return nil
}
