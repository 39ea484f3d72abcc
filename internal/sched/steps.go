package sched

// Exec is one unit of scheduled work: worker w executes the iteration
// space partition with the given space and time indices.
type Exec struct {
	Worker    int
	SpacePart int
	TimePart  int // -1 for 1D schedules
}

// Step is the set of partition executions that run concurrently between
// two synchronization points.
type Step []Exec

// Schedule is a full computation schedule: a sequence of steps.
type Schedule []Step

// OneDSchedule is Fig. 7(d): every worker executes its own partition in
// a single step, followed by one global synchronization.
func OneDSchedule(numWorkers int) Schedule {
	step := make(Step, 0, numWorkers)
	for w := 0; w < numWorkers; w++ {
		step = append(step, Exec{Worker: w, SpacePart: w, TimePart: -1})
	}
	return Schedule{step}
}

// OrderedTwoDSchedule is Fig. 7(e): the wavefront schedule over N space
// partitions and M time partitions. Global step T runs worker j on time
// partition i = T - j when 0 <= i < M. Concurrently running partitions
// differ in both space and time indices, and partitions belonging to the
// same space or time index execute in increasing order, preserving the
// loop's lexicographic ordering.
func OrderedTwoDSchedule(numWorkers, timeParts int) Schedule {
	n, m := numWorkers, timeParts
	var sched Schedule
	for t := 0; t <= m+n-2; t++ {
		var step Step
		for j := 0; j < n; j++ {
			i := t - j
			if i >= 0 && i < m {
				step = append(step, Exec{Worker: j, SpacePart: j, TimePart: i})
			}
		}
		sched = append(sched, step)
	}
	return sched
}

// UnorderedTwoDSchedule is Fig. 7(f): workers start from different time
// indices and rotate, so all workers are busy in every step. With
// pipelining (Fig. 8), each worker owns depth consecutive time indices
// at a time; timeParts must be numWorkers*depth. Global step T runs
// worker j on time partition (j*depth + T) mod timeParts. Any two
// concurrent executions differ in both space and time indices, so the
// schedule is serializable.
func UnorderedTwoDSchedule(numWorkers, depth int) Schedule {
	n := numWorkers
	m := n * depth
	var sched Schedule
	for t := 0; t < m; t++ {
		step := make(Step, 0, n)
		for j := 0; j < n; j++ {
			i := (j*depth + t) % m
			step = append(step, Exec{Worker: j, SpacePart: j, TimePart: i})
		}
		sched = append(sched, step)
	}
	return sched
}

// Holder is the executor holding time partition part of a time-indexed
// array at the start of step: the one the step runs it on, else executor
// 0 — where, down the ordered wavefront, a partition waits for its first
// block of a pass and returns after its last.
func (s Schedule) Holder(step, part int) int {
	if step < len(s) {
		for _, e := range s[step] {
			if e.TimePart == part {
				return e.Worker
			}
		}
	}
	return 0
}

// Conflicts reports pairs of executions within one step that share a
// space or time partition index — used by tests to check
// serializability of generated schedules.
//
//lint:ignore reach a test oracle: no step of a generated schedule may conflict
func (s Step) Conflicts() bool {
	for a := 0; a < len(s); a++ {
		for b := a + 1; b < len(s); b++ {
			if s[a].SpacePart == s[b].SpacePart {
				return true
			}
			if s[a].TimePart >= 0 && s[a].TimePart == s[b].TimePart {
				return true
			}
		}
	}
	return false
}

// Covers reports whether the schedule executes every (space, time)
// partition exactly once, for space in [0,numWorkers) and time in
// [0,timeParts).
//
//lint:ignore reach a test oracle: a generated schedule runs every block once
func (s Schedule) Covers(numWorkers, timeParts int) bool {
	seen := make(map[[2]int]int)
	for _, step := range s {
		for _, e := range step {
			seen[[2]int{e.SpacePart, e.TimePart}]++
		}
	}
	if timeParts <= 0 {
		for j := 0; j < numWorkers; j++ {
			if seen[[2]int{j, -1}] != 1 {
				return false
			}
		}
		return len(seen) == numWorkers
	}
	for j := 0; j < numWorkers; j++ {
		for i := 0; i < timeParts; i++ {
			if seen[[2]int{j, i}] != 1 {
				return false
			}
		}
	}
	return len(seen) == numWorkers*timeParts
}
