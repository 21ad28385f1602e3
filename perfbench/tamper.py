"""Seeded tamper generator for the `verify` workload.

Each edit makes one recorded field of a valid certificate disagree with
its recomputation, so `dscurves verify` must reject the result with exit 1
(checked and false) or 3 (schema error).  No edit can yield another true
certificate: there is no change of `eps` to another admissible unit and no
witness replaced by one that still passes.
"""

import copy

CRITERION_BOOLS = ("field_splits", "y_ramified", "ram1_excluded",
                   "ram2_excluded", "mu_obstruction", "ok")
LOCAL_BOOLS = ("infinity_ok", "ram1_ok", "ram2_ok", "ok")

# Fields that verify binds to a recomputation at the seed commit.
BOUND_KINDS = ("flip_bool", "fast_m", "witness_cutoff", "exponent_n",
               "verdict", "drop_witness", "witness_a_degree")
# Fields verify does not check yet: a tampered copy still verifies with
# exit 0, which the benchmark counts as a failed operation.
UNBOUND_KINDS = ("reasons", "seed")
KINDS = BOUND_KINDS + UNBOUND_KINDS

REJECT_CODES = (1, 3)


def tamper(cert, kind, rng):
    """Return (edited copy of cert, one-line description of the edit)."""
    data = copy.deepcopy(cert)
    local = data["local"]
    if kind == "flip_bool":
        section, key = rng.choice([("criterion", k) for k in CRITERION_BOOLS]
                                  + [("local", k) for k in LOCAL_BOOLS])
        data[section][key] = not data[section][key]
        return data, "flip %s.%s" % (section, key)
    if kind in ("fast_m", "witness_cutoff"):
        delta = rng.choice((-1, 1))
        local[kind] += delta
        return data, "local.%s %+d" % (kind, delta)
    if kind == "exponent_n":
        delta = rng.choice((-1, 1))
        data[kind] += delta
        return data, "exponent_n %+d" % delta
    if kind == "verdict":
        data["verdict"] = "INVALID"
        return data, "verdict VALID -> INVALID"
    if kind == "drop_witness":
        i = rng.randrange(len(local["witnesses"]))
        w = local["witnesses"].pop(i)
        return data, "drop witness for l=%s" % w["l"]
    if kind == "witness_a_degree":
        i = rng.randrange(len(local["witnesses"]))
        w = local["witnesses"][i]
        # deg l comes from the canonical text: leading term t^k, t, or constant
        lead = w["l"].split("+")[0]
        deg_l = int(lead.split("^")[1]) if "^" in lead else int("t" in lead)
        w["a"] = "t^%d" % (deg_l // 2 + 1)
        return data, "witness a for l=%s set to %s" % (w["l"], w["a"])
    if kind == "reasons":
        data["reasons"] = data["reasons"] + ["edited reason"]
        return data, "append to reasons"
    if kind == "seed":
        data["seed"] += 1
        return data, "seed +1"
    raise ValueError("unknown tamper kind %r" % (kind,))


def tampered_sample(certs, rng, kinds):
    """One tampered variant per certificate, kind drawn from kinds.

    One per certificate keeps the cost of a sample independent of the
    seed: verify recomputes everything before it compares, so the cost is
    set by the triple, not by the edit.  Returns [(index, kind, desc, data)].
    """
    out = []
    for i, cert in enumerate(certs):
        kind = rng.choice(kinds)
        data, desc = tamper(cert, kind, rng)
        out.append((i, kind, desc, data))
    return out
