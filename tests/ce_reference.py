"""A source-only training loop written out on its own, as the reference that
``da.train_da`` with both auxiliary terms removed must reproduce bit for bit.

It draws the same batch and dropout streams and follows the same schedules,
but its objective is the source cross-entropy alone, and a frozen layer stays
on the tape: its gradients are computed and it is only kept out of the
optimizer.
"""

import numpy as np

from convmkit import tensor as T
from convmkit.da import DomainSampler, default_freeze_set, sampling_ratio
from convmkit.optim import SGDMomentum, poly_lr


def train_ce_reference(model, datasets, cfg, solver):
    rng = np.random.default_rng(solver.seed)
    sampler = DomainSampler(datasets.source_x, datasets.source_y,
                            datasets.target_x, solver.batch_size, rng)
    freeze = set(cfg.freeze_set if cfg.freeze_set is not None
                 else default_freeze_set(model))
    params = {n: p for n, p in model.parameters().items()
              if n.split(".", 1)[0] not in freeze}
    mults = {n: cfg.head_lr_multiplier for n in params
             if n.startswith(("head.", "decoder"))}
    opt = SGDMomentum(params, momentum=solver.momentum, lr_multipliers=mults)
    for step in range(solver.max_steps):
        lr = poly_lr(solver.base_lr, step, solver.max_steps, solver.power)
        batch = sampler.make_batch(sampling_ratio(step, solver.max_steps, cfg))
        opt.zero_grad()
        src = batch.source_rows
        st = model.forward(T.Tensor(batch.x, dtype=model.dtype), training=True, rng=rng)
        loss = T.softmax_cross_entropy(T.take_rows(st.logits, src), batch.labels[src])
        loss.backward()
        opt.step(lr)
