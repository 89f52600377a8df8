package exitcode

import (
	"errors"
	"fmt"
	"testing"

	"nmdetect/internal/checkpoint"
)

func TestFor(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, OK},
		{"plain runtime", base, Runtime},
		{"validation", AsValidation(base), Validation},
		{"wrapped validation", fmt.Errorf("cmd: %w", AsValidation(base)), Validation},
		{"incompatible", checkpoint.ErrIncompatible, ResumeIncompatible},
		{"wrapped incompatible", fmt.Errorf("load: %w", checkpoint.ErrIncompatible), ResumeIncompatible},
		// A refused resume stays exit 4 even if a caller also marked the
		// path as validation: incompatibility is the more specific verdict.
		{"incompatible beats validation", AsValidation(fmt.Errorf("x: %w", checkpoint.ErrIncompatible)), ResumeIncompatible},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := For(tc.err); got != tc.want {
				t.Fatalf("For(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}

func TestAsValidationPreservesMessageAndChain(t *testing.T) {
	if AsValidation(nil) != nil {
		t.Fatal("AsValidation(nil) must stay nil")
	}
	sentinel := errors.New("inner")
	err := AsValidation(fmt.Errorf("outer: %w", sentinel))
	if err.Error() != "outer: inner" {
		t.Fatalf("message changed: %q", err.Error())
	}
	if !errors.Is(err, sentinel) {
		t.Fatal("wrapping lost the original error chain")
	}
}

func TestRetryable(t *testing.T) {
	cases := map[int]bool{
		OK:                 false,
		Validation:         false,
		ResumeIncompatible: false,
		Runtime:            true,
		-1:                 true, // signal death: Go's ExitCode() for a killed process
		Panic:              true, // cli.Main recovered a panic
		137:                true, // shell-style 128+SIGKILL
	}
	for code, want := range cases {
		if got := Retryable(code); got != want {
			t.Fatalf("Retryable(%d) = %v, want %v", code, got, want)
		}
	}
}
