// Exam runs a scenario from the shipped library end to end with the
// autopilot trainee and prints the instructor's status window (Fig. 5)
// while it progresses. The default scenario is the licensing exam of
// Fig. 8/9: drive to the test ground, lift the cargo from the white
// circle, carry it along the bar trajectory and back, and set it down —
// with the live score and alarm lamps. Pick any other library entry with
// -scenario (windy-lift, night-precision, ...). It exits non-zero when
// the autopilot fails the scenario.
package main

import (
	"flag"
	"fmt"
	"log"

	"codsim/internal/crane"
	"codsim/internal/fom"
	"codsim/internal/instructor"
	"codsim/internal/scenario"
	"codsim/internal/trace"
)

func main() {
	name := flag.String("scenario", "classic-exam", "library scenario to run")
	flag.Parse()
	if err := run(*name); err != nil {
		log.Fatal(err)
	}
}

func run(name string) error {
	spec, err := scenario.ByName(name)
	if err != nil {
		return err
	}
	// One rig and one autopilot per declared crane, all over one shared
	// cargo world — a single-crane spec declares exactly one.
	fl, err := trace.NewFlight(spec, trace.SkillProfile{})
	if err != nil {
		return err
	}
	eng := fl.Engine
	eng.SetLiveStatus(true) // the status window shows live distances
	mon := instructor.NewMonitor(crane.DefaultSpec())

	fmt.Printf("=== %s ===\n", spec.Title)
	nextWindow := 0.0
	for fl.SimTime < 900 {
		scen := eng.State()
		for _, st := range fl.States {
			mon.ObserveCrane(st, trace.Dt)
		}
		mon.ObserveScenario(scen)

		if fl.SimTime >= nextWindow {
			fmt.Printf("--- t = %.0f s ---\n", fl.SimTime)
			fmt.Print(mon.StatusWindow(eng.ExtraAlarms()))
			nextWindow += 15
		}
		if fl.Done() {
			fmt.Printf("\n=== %s %s: score %.1f, %d collisions, %.0f s ===\n",
				spec.Title, scen.Phase, scen.Score, scen.Collisions, scen.Elapsed)
			fmt.Println("\nmisconduct log:")
			for _, ev := range mon.AlarmLog() {
				fmt.Printf("  t=%6.1f  crane %d  alarm bits %06b\n", ev.At, ev.Crane, ev.Raised)
			}
			if scen.Phase == fom.PhaseFailed {
				return fmt.Errorf("the autopilot failed %s: %s", spec.Name, scen.Message)
			}
			return nil
		}
		fl.Tick()
	}
	return fmt.Errorf("scenario did not finish within 900 simulated seconds")
}
