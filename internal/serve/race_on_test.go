//go:build race

package serve

// raceEnabled skips allocation budgets under the race detector, whose
// sync.Pool drops a share of Puts on purpose, so a pooled buffer is
// allocated again at random.
const raceEnabled = true
