package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestContinue resumes hand-built partial searches: the rest of the ball
// starts at the first shell the partial one did not finish, and the
// folded Result counts each shell once.
func TestContinue(t *testing.T) {
	const c1, c2 = 256, 32640 // C(256,1), C(256,2)
	// The backend's answer to every resume: whatever shells it was asked
	// for, covered in full, 10 device-seconds and 3 J at 5 W peak.
	rest := func(task Task) Result {
		res := Result{WallSeconds: 10, DeviceSeconds: 10, EnergyJoules: 3, PeakWatts: 5}
		for d := task.StartShell(); d <= task.MaxDistance; d++ {
			size := map[int]uint64{1: c1, 2: c2, 3: 2763520}[d]
			res.Shells = append(res.Shells, ShellStat{Distance: d, SeedsCovered: size})
			res.SeedsCovered += size
			res.HashesExecuted += size
		}
		return res
	}
	shells := func(ss ...ShellStat) []ShellStat { return ss }

	for _, tc := range []struct {
		name      string
		task      Task
		done      Result
		wantStart int    // MinDistance the resume runs with
		covered   uint64 // folded SeedsCovered
		hashed    uint64 // folded HashesExecuted
		distances string
	}{
		{
			name:      "base probe only",
			task:      Task{MaxDistance: 2},
			done:      Result{SeedsCovered: 1, HashesExecuted: 1},
			wantStart: 1, covered: 1 + c1 + c2, hashed: 1 + c1 + c2,
			distances: "[1 2]",
		},
		{
			name:      "escalated at 2, nothing finished",
			task:      Task{MaxDistance: 3, MinDistance: 2},
			done:      Result{SeedsCovered: 40, HashesExecuted: 40, Shells: shells(ShellStat{Distance: 2, SeedsCovered: 40})},
			wantStart: 2, covered: c2 + 2763520, hashed: 40 + c2 + 2763520,
			distances: "[2 3]",
		},
		{
			name: "d=1 finished, d=2 partial",
			task: Task{MaxDistance: 2},
			done: Result{SeedsCovered: 1 + c1 + 100, HashesExecuted: 1 + c1 + 100,
				Shells: shells(ShellStat{Distance: 1, SeedsCovered: c1}, ShellStat{Distance: 2, SeedsCovered: 100})},
			wantStart: 2, covered: 1 + c1 + c2, hashed: 1 + c1 + 100 + c2,
			distances: "[1 2]",
		},
		{
			name:      "base never probed",
			task:      Task{MaxDistance: 1},
			done:      Result{SeedsCovered: 7, HashesExecuted: 7, Shells: shells(ShellStat{Distance: 1, SeedsCovered: 7})},
			wantStart: 0, covered: 1 + c1, hashed: 7 + 1 + c1,
			distances: "[1]",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got Task
			res, err := Continue(context.Background(), tc.task, tc.done, func(_ context.Context, task Task) (Result, error) {
				got = task
				res := rest(task)
				if task.IncludeBase() {
					res.SeedsCovered++
					res.HashesExecuted++
				}
				return res, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.MinDistance != tc.wantStart {
				t.Errorf("resumed at MinDistance %d, want %d", got.MinDistance, tc.wantStart)
			}
			var ds []int
			for _, st := range res.Shells {
				ds = append(ds, st.Distance)
			}
			if res.SeedsCovered != tc.covered || res.HashesExecuted != tc.hashed || fmt.Sprint(ds) != tc.distances {
				t.Errorf("folded covered %d hashed %d shells %v, want %d, %d, %s",
					res.SeedsCovered, res.HashesExecuted, ds, tc.covered, tc.hashed, tc.distances)
			}
			if res.EnergyJoules != 3 || res.PeakWatts != 5 || res.WallSeconds != 10+tc.done.WallSeconds {
				t.Errorf("folded energy/peak/wall = %v/%v/%v", res.EnergyJoules, res.PeakWatts, res.WallSeconds)
			}
		})
	}

	// An inline d <= 1 prefix folds exactly as the CA's escalation always
	// has: inline shells first, every counter and clock summed.
	t.Run("inline prefix", func(t *testing.T) {
		inline := Result{SeedsCovered: 1 + c1, HashesExecuted: 1 + c1, WallSeconds: 0.002, DeviceSeconds: 0.002,
			Shells: shells(ShellStat{Distance: 1, SeedsCovered: c1, DeviceSeconds: 0.0015})}
		task := Task{MaxDistance: 3}
		backend := Result{Found: true, Distance: 3, SeedsCovered: c2 + 5000, HashesExecuted: c2 + 5000,
			WallSeconds: 0.4, DeviceSeconds: 0.4, Shells: shells(
				ShellStat{Distance: 2, SeedsCovered: c2, DeviceSeconds: 0.01},
				ShellStat{Distance: 3, SeedsCovered: 5000, DeviceSeconds: 0.39})}
		want := backend
		want.SeedsCovered += inline.SeedsCovered
		want.HashesExecuted += inline.HashesExecuted
		want.WallSeconds += inline.WallSeconds
		want.DeviceSeconds += inline.DeviceSeconds
		want.Shells = append(append([]ShellStat(nil), inline.Shells...), backend.Shells...)

		res, err := Continue(context.Background(), task, inline, func(_ context.Context, got Task) (Result, error) {
			if got.MinDistance != 2 {
				t.Errorf("escalated at MinDistance %d, want 2", got.MinDistance)
			}
			return backend, nil
		})
		if err != nil || !reflect.DeepEqual(res, want) {
			t.Errorf("Continue = %+v, %v\nwant %+v", res, err, want)
		}
	})
}
