// Command experiments regenerates every quantitative artifact of the
// paper: the §4 surround-view frame-rate measurement and the behaviours
// behind Figures 1–10. Each experiment prints a table.
//
// Usage:
//
//	experiments [-exp all|1|2|...|7] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type experiment struct {
	id    int
	title string
	run   func(quick bool) error
}

func main() {
	var (
		expFlag = flag.String("exp", "all", "experiment to run: all or 1..7")
		quick   = flag.Bool("quick", false, "smaller sweeps for a fast pass")
	)
	flag.Parse()

	exps := []experiment{
		{1, "EXP-1 surround-view frame rate (§4, Fig. 10/11)", exp1SurroundView},
		{2, "EXP-2 CB virtual-channel routing (Fig. 1/2, §2.2)", exp2Routing},
		{3, "EXP-3 initialization protocol & dynamic join (§2.3)", exp3Init},
		{4, "EXP-4 Stewart platform & washout (§3.4, Fig. 7)", exp4Motion},
		{5, "EXP-5 dynamics: oscillation & collision (§3.6)", exp5Dynamics},
		{6, "EXP-6 licensing exam & scoring (§3.5, Fig. 5/8/9)", exp6Exam},
		{7, "EXP-7 COD scaling ablation (§2.1, §5)", exp7Scaling},
	}

	var failed bool
	for _, e := range exps {
		if *expFlag != "all" {
			want, err := strconv.Atoi(*expFlag)
			if err != nil || want < 1 || want > len(exps) {
				fmt.Fprintf(os.Stderr, "experiments: bad -exp %q\n", *expFlag)
				os.Exit(2)
			}
			if e.id != want {
				continue
			}
		}
		fmt.Println(strings.Repeat("=", 72))
		fmt.Println(e.title)
		fmt.Println(strings.Repeat("=", 72))
		if err := e.run(*quick); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: EXP-%d: %v\n", e.id, err)
			failed = true
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}
