// Package testonly is imported by tests only: its exports are exempt.
package testonly

// Helper is called from a test.
func Helper() {}
