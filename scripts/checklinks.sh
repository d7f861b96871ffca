#!/usr/bin/env bash
# checklinks.sh — fail when any tracked Markdown file links to a
# repo-relative path that does not exist, or when a tracked Go file
# cites a Markdown file (any *.md name in it, comments included) that
# exists neither in the Go file's own directory nor at the repo root.
#
# Skipped: external links (http/https/mailto), pure #anchor links, and
# targets that resolve outside the repo root (e.g. the CI badge's
# ../../actions/... GitHub-relative path). Fragments (file.md#section)
# are checked for file existence only, not for the anchor.
#
# Run from anywhere: ./scripts/checklinks.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
fail=0

while IFS= read -r file; do
  dir=$(dirname "$file")
  # Pull out [text](target) / ![alt](target) link targets.
  while IFS= read -r target; do
    case "$target" in
      http://* | https://* | mailto:* | '#'* | '') continue ;;
    esac
    target=${target%%#*} # drop the fragment
    target=${target%% *} # drop an optional "title"
    [ -n "$target" ] || continue
    resolved=$(realpath -m "$dir/$target")
    case "$resolved" in
      "$root"/* | "$root") ;;
      *) continue ;; # outside the repo: GitHub-relative paths like the badge
    esac
    if [ ! -e "$resolved" ]; then
      echo "broken link in $file: $target"
      fail=1
    fi
  done < <(grep -o '!\?\[[^]]*\]([^)]*)' "$file" | sed 's/.*(\(.*\))$/\1/')
done < <(git ls-files '*.md')

# grep -o prints file:name for every *.md name cited in Go source.
while IFS=: read -r file name; do
  case "$name" in
    /*) continue ;; # the tail of a URL or an absolute path
  esac
  if [ ! -e "$(dirname "$file")/$name" ] && [ ! -e "$name" ]; then
    echo "Markdown file cited in $file does not exist: $name"
    fail=1
  fi
done < <(git ls-files -z '*.go' | xargs -0 grep -oHE '[A-Za-z0-9_./-]*\.md\b')

if [ "$fail" -ne 0 ]; then
  echo "checklinks: broken relative links or Markdown citations found" >&2
  exit 1
fi
echo "checklinks: all relative Markdown links and Go citations resolve"
