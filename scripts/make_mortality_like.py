"""Write a synthetic mortality-like long sample CSV for the loocv harness.

The file mimics the shape of an age-at-death study: each subject carries
two predictor distributions and one response distribution, observed
through raw samples on a bounded age range.  It is generated from the
two-predictor simulation scenario with weights (0.2, 0.4, 0.4) and
rescaled to the requested domain, so it exercises the exact CSV schema
the fit/predict/loocv commands ingest without any access-restricted data.

Example follow-up:

    mtdr loocv --data mortality_like.csv --p 2 --domain 0,100 \
        --t 300 --reference frechet --out loocv_report.json
"""

import argparse

from mtdr.cli import _parse_count, write_long_csv
from mtdr.quantile_core import Domain
from mtdr.simulation import mortality_like_samples


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="mortality_like.csv")
    parser.add_argument("--n", type=_parse_count(1), default=34, help="number of subjects")
    parser.add_argument("--m", type=_parse_count(1), default=500, help="samples per variable")
    parser.add_argument("--seed", type=_parse_count(0), default=7)
    parser.add_argument("--lo", type=float, default=0.0, help="age range start")
    parser.add_argument("--hi", type=float, default=100.0, help="age range end")
    args = parser.parse_args()
    try:
        domain = Domain(args.lo, args.hi)
    except ValueError as err:
        parser.error(str(err))

    pred, resp = mortality_like_samples(n=args.n, m=args.m, seed=args.seed, domain=domain)
    write_long_csv(args.out, pred, resp)
    print(f"wrote {args.out}: {args.n} subjects, {args.m} samples per variable")


if __name__ == "__main__":
    main()
