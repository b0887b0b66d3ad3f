from .cli import main

if __name__ == "__main__":  # perfbench/spans.py imports every module
    raise SystemExit(main())
