#!/bin/sh
# check.sh runs the full local gate, `make check` (see the Makefile).
exec make -C "$(dirname "$0")" check
