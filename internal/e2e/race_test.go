//go:build race

package e2e

func init() { raceEnabled = true }
