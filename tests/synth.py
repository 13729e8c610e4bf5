"""Synthetic datasets for the test suite.

``write_kdd_corpus`` emits a KDD99-format file whose per-attack counts sum
exactly to the published 10% training composition (Normal 97,277; DoS
391,458; R2L 1,126; U2R 52; Probe 4,107; 494,020 records). Attribute
values are drawn from class-conditional patterns with noise, several
columns are pure class-independent noise, and a handful are constant, so
the file exercises the whole pipeline: informative attributes to keep,
junk to prune, minority classes to fight for.
"""

import numpy as np

from nbtree_ids.dataset import AttackTaxonomy, AttributeSpec, Schema, load_dataset
from nbtree_ids.kdd99 import kdd99_schema


def make_dataset(schema, rows, labels, weights=None):
    """The dataset of in-memory ``rows`` (one value per attribute, a symbol
    of its domain or a finite number) and class names ``labels``, read by
    the loader as CSV lines; uniformly weighted unless ``weights`` given."""
    lines = [",".join([*(str(v) if a.is_discrete else repr(float(v))
                         for a, v in zip(schema.attributes, row)), label]) + "\n"
             for row, label in zip(rows, labels, strict=True)]
    ds = load_dataset(lines, schema, AttackTaxonomy({c: c for c in schema.class_names}))
    return ds if weights is None else ds.with_weights(weights)


# -- controlled feature-recovery dataset -----------------------------------------


def majority_schema():
    attrs = tuple(
        AttributeSpec(name, "discrete", ("0", "1"))
        for name in [f"inf{i}" for i in range(5)] + [f"noise{i}" for i in range(5)]
    )
    return Schema(attrs, ("neg", "pos"))


def make_majority_dataset(seed, n=2000):
    """Ten binary attributes; the class is the majority vote of the first
    five, the last five are independent coin flips."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n, 10))
    labels = np.where(bits[:, :5].sum(axis=1) >= 3, "pos", "neg")
    rows = [tuple(str(b) for b in row) for row in bits]
    return make_dataset(majority_schema(), rows, list(labels))


def xor_schema():
    return Schema(
        (AttributeSpec("a", "discrete", ("0", "1")),
         AttributeSpec("b", "discrete", ("0", "1"))),
        ("same", "diff"),
    )


def make_xor_dataset(n_per_cell=50):
    rows, labels = [], []
    for a in "01":
        for b in "01":
            rows += [(a, b)] * n_per_cell
            labels += ["same" if a == b else "diff"] * n_per_cell
    return make_dataset(xor_schema(), rows, labels)


# -- KDD99-format corpus -----------------------------------------------------------

# per-attack record counts; class sums match the published 10% composition
ATTACK_COUNTS = {
    "normal": 97277,
    "neptune": 107201, "smurf": 280790, "back": 2203,
    "teardrop": 979, "pod": 264, "land": 21,
    "warezclient": 1020, "guess_passwd": 53, "warezmaster": 20,
    "imap": 12, "ftp_write": 8, "multihop": 7, "phf": 4, "spy": 2,
    "buffer_overflow": 30, "rootkit": 10, "loadmodule": 9, "perl": 3,
    "satan": 1589, "ipsweep": 1247, "portsweep": 1040, "nmap": 231,
}

CLASS_TOTALS = {
    "Normal": 97277, "DoS": 391458, "R2L": 1126, "U2R": 52, "Probe": 4107,
}

_COLS = {spec.name: i for i, spec in enumerate(kdd99_schema().attributes)}

_NOISE_COLS = (
    "dst_host_same_src_port_rate", "dst_host_srv_diff_host_rate",
    "dst_host_serror_rate", "dst_host_srv_serror_rate",
    "dst_host_rerror_rate", "dst_host_srv_rerror_rate",
)

_SCAN_SERVICES = ["smtp", "domain", "ssh", "time", "gopher", "name",
                  "whois", "mtp", "echo", "discard", "sunrpc", "uucp"]


def _choice(rng, options, probs, n):
    return rng.choice(np.asarray(options, dtype=object), p=probs, size=n)


def _ints(rng, low, high, n):
    return rng.integers(low, high + 1, size=n)


def _rates(rng, low, high, n):
    return np.round(rng.uniform(low, high, size=n), 2)


def _attack_block(rng, attack, n):
    """Column dict for one attack type; unlisted columns default to zero."""
    c = {}
    if attack == "normal":
        c["service"] = _choice(rng, ["http", "smtp", "ftp_data", "telnet", "other", "ftp"],
                               [0.60, 0.15, 0.10, 0.05, 0.07, 0.03], n)
        c["flag"] = _choice(rng, ["SF", "REJ"], [0.97, 0.03], n)
        c["duration"] = np.where(rng.random(n) < 0.8, _ints(rng, 0, 4, n), _ints(rng, 5, 400, n))
        c["src_bytes"] = _ints(rng, 100, 2500, n)
        c["dst_bytes"] = _ints(rng, 300, 8000, n)
        c["logged_in"] = (rng.random(n) < 0.75).astype(int)
        c["hot"] = np.where(rng.random(n) < 0.97, 0, _ints(rng, 1, 2, n))
        c["count"] = _ints(rng, 1, 30, n)
        c["srv_count"] = _ints(rng, 1, 30, n)
        c["serror_rate"] = _rates(rng, 0.0, 0.03, n)
        c["rerror_rate"] = _rates(rng, 0.0, 0.03, n)
        c["same_srv_rate"] = _rates(rng, 0.8, 1.0, n)
        c["diff_srv_rate"] = _rates(rng, 0.0, 0.1, n)
        c["dst_host_count"] = _ints(rng, 1, 255, n)
        c["dst_host_srv_count"] = _ints(rng, 50, 255, n)
    elif attack == "neptune":
        c["service"] = _choice(rng, ["private", "other"], [0.95, 0.05], n)
        c["flag"] = _choice(rng, ["S0", "REJ"], [0.97, 0.03], n)
        c["count"] = _ints(rng, 100, 511, n)
        c["srv_count"] = _ints(rng, 1, 20, n)
        c["serror_rate"] = _rates(rng, 0.9, 1.0, n)
        c["same_srv_rate"] = _rates(rng, 0.0, 0.1, n)
        c["diff_srv_rate"] = _rates(rng, 0.03, 0.1, n)
        c["dst_host_count"] = _ints(rng, 200, 255, n)
        c["dst_host_srv_count"] = _ints(rng, 1, 30, n)
    elif attack == "smurf":
        c["protocol_type"] = "icmp"
        c["service"] = "ecr_i"
        c["flag"] = "SF"
        c["src_bytes"] = np.where(rng.random(n) < 0.7, 1032, 520)
        c["count"] = _ints(rng, 400, 511, n)
        c["srv_count"] = _ints(rng, 400, 511, n)
        c["same_srv_rate"] = _rates(rng, 0.95, 1.0, n)
        c["dst_host_count"] = _ints(rng, 200, 255, n)
        c["dst_host_srv_count"] = _ints(rng, 200, 255, n)
    elif attack == "back":
        c["service"] = "http"
        c["flag"] = "SF"
        c["src_bytes"] = _ints(rng, 50000, 56000, n)
        c["dst_bytes"] = _ints(rng, 2000, 9000, n)
        c["logged_in"] = 1
        c["hot"] = np.where(rng.random(n) < 0.6, 2, 1)
        c["count"] = _ints(rng, 1, 10, n)
        c["srv_count"] = _ints(rng, 1, 10, n)
        c["same_srv_rate"] = _rates(rng, 0.9, 1.0, n)
        c["dst_host_count"] = _ints(rng, 1, 255, n)
        c["dst_host_srv_count"] = _ints(rng, 50, 255, n)
    elif attack == "teardrop":
        c["protocol_type"] = "udp"
        c["service"] = "private"
        c["flag"] = "SF"
        c["wrong_fragment"] = np.where(rng.random(n) < 0.8, 3, 1)
        c["src_bytes"] = 28
        c["count"] = _ints(rng, 80, 300, n)
        c["srv_count"] = _ints(rng, 80, 300, n)
        c["same_srv_rate"] = _rates(rng, 0.9, 1.0, n)
        c["dst_host_count"] = _ints(rng, 1, 100, n)
    elif attack == "pod":
        c["protocol_type"] = "icmp"
        c["service"] = "ecr_i"
        c["flag"] = "SF"
        c["wrong_fragment"] = 1
        c["src_bytes"] = 1480
        c["count"] = _ints(rng, 1, 20, n)
        c["srv_count"] = _ints(rng, 1, 20, n)
        c["same_srv_rate"] = _rates(rng, 0.9, 1.0, n)
    elif attack == "land":
        # spoofed same-host SYNs: rides the neptune flood signature
        c["service"] = _choice(rng, ["private", "telnet"], [0.7, 0.3], n)
        c["flag"] = "S0"
        c["land"] = 1
        c["serror_rate"] = _rates(rng, 0.9, 1.0, n)
        c["count"] = _ints(rng, 100, 400, n)
        c["srv_count"] = _ints(rng, 1, 20, n)
        c["same_srv_rate"] = _rates(rng, 0.0, 0.1, n)
        c["dst_host_count"] = _ints(rng, 200, 255, n)
        c["dst_host_srv_count"] = _ints(rng, 1, 30, n)
    elif attack == "ipsweep":
        c["protocol_type"] = "icmp"
        c["service"] = "eco_i"
        c["flag"] = "SF"
        c["src_bytes"] = _ints(rng, 8, 20, n)
        c["count"] = _ints(rng, 1, 5, n)
        c["srv_count"] = _ints(rng, 1, 5, n)
        c["same_srv_rate"] = _rates(rng, 0.9, 1.0, n)
        c["dst_host_count"] = _ints(rng, 1, 60, n)
    elif attack == "nmap":
        c["protocol_type"] = _choice(rng, ["icmp", "tcp"], [0.85, 0.15], n)
        c["service"] = _choice(rng, ["eco_i", "private"], [0.85, 0.15], n)
        c["flag"] = _choice(rng, ["SF", "REJ"], [0.8, 0.2], n)
        c["src_bytes"] = _ints(rng, 0, 20, n)
        c["count"] = _ints(rng, 1, 10, n)
        c["rerror_rate"] = _rates(rng, 0.4, 1.0, n)
        c["dst_host_srv_count"] = _ints(rng, 1, 30, n)
    elif attack == "portsweep":
        c["service"] = _choice(rng, _SCAN_SERVICES, None, n)
        c["flag"] = _choice(rng, ["REJ", "RSTR", "SF"], [0.5, 0.35, 0.15], n)
        c["src_bytes"] = _ints(rng, 0, 10, n)
        c["rerror_rate"] = _rates(rng, 0.6, 1.0, n)
        c["diff_srv_rate"] = _rates(rng, 0.6, 1.0, n)
        c["count"] = _ints(rng, 1, 30, n)
        c["dst_host_count"] = _ints(rng, 100, 255, n)
        c["dst_host_srv_count"] = _ints(rng, 1, 20, n)
    elif attack == "satan":
        c["service"] = _choice(rng, _SCAN_SERVICES, None, n)
        c["flag"] = _choice(rng, ["REJ", "SF", "RSTR"], [0.45, 0.35, 0.2], n)
        c["src_bytes"] = _ints(rng, 0, 30, n)
        c["rerror_rate"] = _rates(rng, 0.4, 1.0, n)
        c["diff_srv_rate"] = _rates(rng, 0.5, 1.0, n)
        c["count"] = _ints(rng, 2, 60, n)
        c["srv_count"] = _ints(rng, 1, 10, n)
        c["dst_host_count"] = _ints(rng, 100, 255, n)
    elif attack in ("warezclient", "warezmaster"):
        c["service"] = _choice(rng, ["ftp", "ftp_data"], [0.35, 0.65], n)
        c["flag"] = "SF"
        c["duration"] = _ints(rng, 30, 2000, n)
        c["src_bytes"] = _ints(rng, 200_000, 5_000_000, n)
        c["dst_bytes"] = _ints(rng, 300, 4000, n)
        c["logged_in"] = 1
        c["is_guest_login"] = (rng.random(n) < 0.7).astype(int)
        c["hot"] = np.where(rng.random(n) < 0.5, _ints(rng, 1, 3, n), 0)
        c["count"] = _ints(rng, 1, 10, n)
        c["dst_host_count"] = _ints(rng, 1, 60, n)
    elif attack == "guess_passwd":
        c["service"] = _choice(rng, ["pop_3", "telnet"], [0.85, 0.15], n)
        c["flag"] = _choice(rng, ["RSTO", "SF"], [0.45, 0.55], n)
        c["duration"] = _ints(rng, 1, 10, n)
        c["src_bytes"] = _ints(rng, 100, 300, n)
        c["dst_bytes"] = _ints(rng, 200, 500, n)
        c["num_failed_logins"] = _ints(rng, 1, 5, n)
        c["hot"] = _ints(rng, 1, 2, n)   # failed logins raise hot indicators
        c["count"] = _ints(rng, 1, 5, n)
    elif attack == "imap":
        c["service"] = "imap4"
        c["flag"] = _choice(rng, ["SF", "RSTO"], [0.7, 0.3], n)
        c["duration"] = _ints(rng, 1, 60, n)
        c["src_bytes"] = _ints(rng, 100, 1500, n)
        c["dst_bytes"] = _ints(rng, 100, 2000, n)
        c["count"] = _ints(rng, 1, 5, n)
    elif attack == "phf":
        c["service"] = "http"
        c["flag"] = "SF"
        c["duration"] = _ints(rng, 1, 10, n)
        c["src_bytes"] = _ints(rng, 10, 60, n)   # far below normal http traffic
        c["dst_bytes"] = _ints(rng, 100, 500, n)
        c["logged_in"] = 1
        c["count"] = _ints(rng, 1, 5, n)
    elif attack in ("spy", "multihop", "ftp_write"):
        # unauthorized bulk transfers: ride the warez-style signature
        c["service"] = _choice(rng, ["ftp", "ftp_data"], [0.35, 0.65], n)
        c["flag"] = "SF"
        c["duration"] = _ints(rng, 30, 2000, n)
        c["src_bytes"] = _ints(rng, 200_000, 1_000_000, n)
        c["dst_bytes"] = _ints(rng, 300, 4000, n)
        c["logged_in"] = 1
        c["is_guest_login"] = (rng.random(n) < 0.7).astype(int)
        c["hot"] = _ints(rng, 1, 3, n)
        c["count"] = _ints(rng, 1, 10, n)
        c["dst_host_count"] = _ints(rng, 1, 60, n)
    else:  # U2R: buffer_overflow, rootkit, loadmodule, perl
        c["service"] = "telnet"
        c["flag"] = "SF"
        c["duration"] = _ints(rng, 150, 400, n)
        c["src_bytes"] = _ints(rng, 3500, 6000, n)
        c["dst_bytes"] = _ints(rng, 1000, 8000, n)
        c["logged_in"] = 1
        c["hot"] = _ints(rng, 6, 9, n)
        c["root_shell"] = 1
        c["num_compromised"] = _ints(rng, 1, 3, n)
        c["num_root"] = _ints(rng, 2, 8, n)
        c["count"] = _ints(rng, 1, 4, n)
        c["srv_count"] = _ints(rng, 1, 4, n)
    for name in _NOISE_COLS:
        c[name] = _rates(rng, 0.0, 1.0, n)
    return c


_DEFAULTS = {
    "duration": "0", "protocol_type": "tcp", "service": "other", "flag": "SF",
    "src_bytes": "0", "dst_bytes": "0", "land": "0", "wrong_fragment": "0",
    "urgent": "0", "hot": "0", "num_failed_logins": "0", "logged_in": "0",
    "num_compromised": "0", "root_shell": "0", "su_attempted": "0",
    "num_root": "0", "num_file_creations": "0", "num_shells": "0",
    "num_access_files": "0", "num_outbound_cmds": "0", "is_host_login": "0",
    "is_guest_login": "0", "count": "1", "srv_count": "1",
    "serror_rate": "0.00", "srv_serror_rate": "0.00", "rerror_rate": "0.00",
    "srv_rerror_rate": "0.00", "same_srv_rate": "1.00", "diff_srv_rate": "0.00",
    "srv_diff_host_rate": "0.00", "dst_host_count": "255",
    "dst_host_srv_count": "255", "dst_host_same_srv_rate": "1.00",
    "dst_host_diff_srv_rate": "0.00", "dst_host_same_src_port_rate": "0.00",
    "dst_host_srv_diff_host_rate": "0.00", "dst_host_serror_rate": "0.00",
    "dst_host_srv_serror_rate": "0.00", "dst_host_rerror_rate": "0.00",
    "dst_host_srv_rerror_rate": "0.00",
}

_RATE_COLS = {name for name, default in _DEFAULTS.items() if "." in default}


def _col_strings(name, value, n):
    if isinstance(value, str):
        return value
    if np.isscalar(value):
        v = value
        return f"{v:.2f}" if name in _RATE_COLS else str(int(v))
    arr = np.asarray(value)
    if arr.dtype == object:
        return list(arr)
    if name in _RATE_COLS:
        return np.char.mod("%.2f", arr.astype(np.float64)).tolist()
    return arr.astype(np.int64).astype("U").tolist()


def write_kdd_corpus(path, seed=20240501, scale=1.0):
    """Write the synthetic corpus; returns per-attack counts actually used.

    ``scale`` shrinks every attack count proportionally (minimum 1 record)
    for cheaper runs; scale=1 reproduces the published composition exactly.
    """
    rng = np.random.default_rng(seed)
    schema = kdd99_schema()
    names = [a.name for a in schema.attributes]
    used = {}
    with open(path, "w", encoding="utf-8") as fh:
        for attack, count in ATTACK_COUNTS.items():
            n = count if scale == 1.0 else max(1, int(round(count * scale)))
            used[attack] = n
            block = _attack_block(rng, attack, n)
            cols = []
            for name in names:
                value = block.get(name, _DEFAULTS[name])
                cols.append(_col_strings(name, value, n))
            template_parts = []
            varying = []
            for col in cols:
                if isinstance(col, str):
                    template_parts.append(col)
                else:
                    template_parts.append("{}")
                    varying.append(col)
            template = ",".join(template_parts) + f",{attack}.\n"
            if varying:
                fh.writelines(template.format(*vals) for vals in zip(*varying))
            else:
                fh.writelines([template] * n)
    return used
