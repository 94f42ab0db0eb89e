/* Compiled simulator kernel: C port of repro.sim.events + repro.sim.kernel
 * plus the quiet-path message send from repro.net.network and the
 * kernel-dispatch microbenchmark workload.
 *
 * Contract: byte-identical observable behaviour to the pure-python kernel.
 * The heap stores (time, seq, event) with lazy cancellation exactly like
 * the python EventQueue, so the pop order — including when cancelled
 * entries surface and are discarded — is the same total order, and every
 * digest (ResultSet, obs recorder, history) matches the interpreted run.
 *
 * Built optionally by setup.py; repro.engine falls back to the python
 * kernel when this module is absent.  See docs/performance.md.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#define CKERNEL_ABI 2

/* Interned / cached objects (module-lifetime). */
static PyObject *str_enabled, *str__tracer, *str_pid, *str_inc, *str_max_gauge;
/* Per-category tracer gates (repro.obs.events.Tracer.wants_*). */
static PyObject *str_wants_sim, *str_wants_message;
static PyObject *str_sim_events, *str_sim_queue_depth, *str_sim_now_ms;
static PyObject *str__observe_dispatch, *str_getrandbits, *str_kwarg_pid;
static PyObject *str_messages_sent, *str_sender, *str_recipient, *str_sent_at;
static PyObject *str_datacenter, *str_loss_probability;
static PyObject *empty_tuple;
static PyObject *int_four;
static PyObject *int_one;

/* ------------------------------------------------------------------ */
/* Event                                                               */
/* ------------------------------------------------------------------ */

typedef struct CQueue CQueue;

typedef struct {
    PyObject_HEAD
    double time;
    long long seq;
    PyObject *fn;
    PyObject *args;      /* tuple */
    char cancelled;
    char daemon;
    CQueue *queue;       /* owning queue while pending; NULL after pop */
} CEvent;

typedef struct {
    double time;
    long long seq;
    CEvent *ev;          /* owned reference */
} HeapEntry;

struct CQueue {
    PyObject_HEAD
    HeapEntry *heap;
    Py_ssize_t size;
    Py_ssize_t cap;
    long long counter;
    Py_ssize_t live;        /* pending non-cancelled events */
    Py_ssize_t foreground;  /* pending non-daemon, non-cancelled events */
};

static PyTypeObject CEvent_Type;
static PyTypeObject CQueue_Type;

static int
cevent_traverse(CEvent *self, visitproc visit, void *arg)
{
    Py_VISIT(self->fn);
    Py_VISIT(self->args);
    Py_VISIT(self->queue);
    return 0;
}

static int
cevent_clear(CEvent *self)
{
    Py_CLEAR(self->fn);
    Py_CLEAR(self->args);
    Py_CLEAR(self->queue);
    return 0;
}

static void
cevent_dealloc(CEvent *self)
{
    PyObject_GC_UnTrack(self);
    cevent_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Eager cancellation: release the queue accounting *now*; the heap entry
 * lingers until it tops the heap and is discarded (identical to python
 * Event.cancel).  Cancel-after-fire is a no-op because pop detaches the
 * queue pointer. */
static void
cevent_cancel_internal(CEvent *self)
{
    if (self->cancelled)
        return;
    self->cancelled = 1;
    if (self->queue != NULL) {
        self->queue->live -= 1;
        if (!self->daemon)
            self->queue->foreground -= 1;
    }
}

static PyObject *
cevent_cancel(CEvent *self, PyObject *Py_UNUSED(ignored))
{
    cevent_cancel_internal(self);
    Py_RETURN_NONE;
}

static PyObject *
cevent_repr(CEvent *self)
{
    PyObject *name = NULL, *out;
    char *tbuf;
    if (self->fn != NULL) {
        name = PyObject_GetAttrString(self->fn, "__qualname__");
        if (name == NULL) {
            PyErr_Clear();
            name = PyObject_Repr(self->fn);
            if (name == NULL)
                return NULL;
        }
    }
    else {
        name = PyUnicode_FromString("<freed>");
        if (name == NULL)
            return NULL;
    }
    tbuf = PyOS_double_to_string(self->time, 'f', 3, 0, NULL);
    if (tbuf == NULL) {
        Py_DECREF(name);
        return NULL;
    }
    out = PyUnicode_FromFormat("<Event t=%s %U%s>", tbuf, name,
                               self->cancelled ? " cancelled" : "");
    PyMem_Free(tbuf);
    Py_DECREF(name);
    return out;
}

static PyMethodDef cevent_methods[] = {
    {"cancel", (PyCFunction)cevent_cancel, METH_NOARGS,
     "Prevent the event from firing (eager foreground release)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef cevent_members[] = {
    {"time", T_DOUBLE, offsetof(CEvent, time), READONLY, NULL},
    {"seq", T_LONGLONG, offsetof(CEvent, seq), READONLY, NULL},
    {"fn", T_OBJECT_EX, offsetof(CEvent, fn), READONLY, NULL},
    {"args", T_OBJECT_EX, offsetof(CEvent, args), READONLY, NULL},
    {"cancelled", T_BOOL, offsetof(CEvent, cancelled), READONLY, NULL},
    {"daemon", T_BOOL, offsetof(CEvent, daemon), READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CEvent_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.Event",
    .tp_basicsize = sizeof(CEvent),
    .tp_dealloc = (destructor)cevent_dealloc,
    .tp_repr = (reprfunc)cevent_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A scheduled callback (compiled kernel).",
    .tp_traverse = (traverseproc)cevent_traverse,
    .tp_clear = (inquiry)cevent_clear,
    .tp_methods = cevent_methods,
    .tp_members = cevent_members,
};

/* ------------------------------------------------------------------ */
/* EventQueue: binary heap of HeapEntry ordered by (time, seq)          */
/* ------------------------------------------------------------------ */

static inline int
entry_lt(const HeapEntry *a, const HeapEntry *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    return a->seq < b->seq;
}

static int
cq_grow(CQueue *q)
{
    Py_ssize_t newcap = q->cap ? q->cap * 2 : 64;
    HeapEntry *h = PyMem_Realloc(q->heap, newcap * sizeof(HeapEntry));
    if (h == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    q->heap = h;
    q->cap = newcap;
    return 0;
}

/* heapq._siftdown: move heap[pos] toward the root until ordered. */
static void
cq_siftdown(HeapEntry *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    HeapEntry newitem = heap[pos];
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        if (!entry_lt(&newitem, &heap[parentpos]))
            break;
        heap[pos] = heap[parentpos];
        pos = parentpos;
    }
    heap[pos] = newitem;
}

/* heapq._siftup: move the (replaced) root down to a leaf, then up. */
static void
cq_siftup(HeapEntry *heap, Py_ssize_t pos, Py_ssize_t endpos)
{
    Py_ssize_t startpos = pos;
    HeapEntry newitem = heap[pos];
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos && !entry_lt(&heap[childpos], &heap[rightpos]))
            childpos = rightpos;
        heap[pos] = heap[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    heap[pos] = newitem;
    cq_siftdown(heap, startpos, pos);
}

/* Push and return a NEW reference to the created event. */
static CEvent *
cq_push_internal(CQueue *q, double time, PyObject *fn, PyObject *args, int daemon)
{
    CEvent *ev;
    if (q->size >= q->cap && cq_grow(q) < 0)
        return NULL;
    ev = PyObject_GC_New(CEvent, &CEvent_Type);
    if (ev == NULL)
        return NULL;
    ev->time = time;
    ev->seq = q->counter++;
    Py_INCREF(fn);
    ev->fn = fn;
    Py_INCREF(args);
    ev->args = args;
    ev->cancelled = 0;
    ev->daemon = (char)daemon;
    Py_INCREF(q);
    ev->queue = q;
    PyObject_GC_Track(ev);

    q->heap[q->size].time = time;
    q->heap[q->size].seq = ev->seq;
    Py_INCREF(ev);
    q->heap[q->size].ev = ev;
    q->size += 1;
    cq_siftdown(q->heap, 0, q->size - 1);
    q->live += 1;
    if (!daemon)
        q->foreground += 1;
    return ev;
}

/* Pop the heap top; caller owns the returned entry's event reference.
 * Caller must check q->size > 0 first. */
static HeapEntry
cq_pop_top(CQueue *q)
{
    HeapEntry top = q->heap[0];
    q->size -= 1;
    if (q->size > 0) {
        q->heap[0] = q->heap[q->size];
        cq_siftup(q->heap, 0, q->size);
    }
    return top;
}

static int
cqueue_traverse(CQueue *self, visitproc visit, void *arg)
{
    Py_ssize_t i;
    for (i = 0; i < self->size; i++)
        Py_VISIT(self->heap[i].ev);
    return 0;
}

static int
cqueue_clear(CQueue *self)
{
    Py_ssize_t i, n = self->size;
    self->size = 0;
    for (i = 0; i < n; i++)
        Py_CLEAR(self->heap[i].ev);
    return 0;
}

static void
cqueue_dealloc(CQueue *self)
{
    PyObject_GC_UnTrack(self);
    cqueue_clear(self);
    PyMem_Free(self->heap);
    self->heap = NULL;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
cqueue_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    CQueue *self = (CQueue *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->heap = NULL;
    self->size = self->cap = 0;
    self->counter = 0;
    self->live = self->foreground = 0;
    return (PyObject *)self;
}

static Py_ssize_t
cqueue_len(CQueue *self)
{
    return self->live;
}

static PyObject *
cqueue_push(CQueue *self, PyObject *const *args, Py_ssize_t nargs,
            PyObject *kwnames)
{
    double time;
    PyObject *fn, *argtuple = empty_tuple;
    int daemon = 0;
    /* push(time, fn, args=(), daemon=False) */
    Py_ssize_t npos = nargs;
    if (npos < 2 || npos > 4) {
        PyErr_SetString(PyExc_TypeError, "push(time, fn, args=(), daemon=False)");
        return NULL;
    }
    time = PyFloat_AsDouble(args[0]);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    fn = args[1];
    if (npos >= 3)
        argtuple = args[2];
    if (npos == 4)
        daemon = PyObject_IsTrue(args[3]);
    if (kwnames != NULL) {
        Py_ssize_t i, nkw = PyTuple_GET_SIZE(kwnames);
        for (i = 0; i < nkw; i++) {
            PyObject *key = PyTuple_GET_ITEM(kwnames, i);
            PyObject *val = args[npos + i];
            if (PyUnicode_CompareWithASCIIString(key, "daemon") == 0)
                daemon = PyObject_IsTrue(val);
            else if (PyUnicode_CompareWithASCIIString(key, "args") == 0)
                argtuple = val;
            else {
                PyErr_Format(PyExc_TypeError, "unexpected keyword %R", key);
                return NULL;
            }
        }
    }
    if (daemon < 0)
        return NULL;
    if (!PyTuple_Check(argtuple)) {
        PyErr_SetString(PyExc_TypeError, "args must be a tuple");
        return NULL;
    }
    return (PyObject *)cq_push_internal(self, time, fn, argtuple, daemon);
}

/* Pop the earliest non-cancelled event, or None (python EventQueue.pop). */
static PyObject *
cqueue_pop(CQueue *self, PyObject *Py_UNUSED(ignored))
{
    while (self->size > 0) {
        HeapEntry top = cq_pop_top(self);
        CEvent *ev = top.ev;
        if (ev->cancelled) {
            Py_DECREF(ev);
            continue;
        }
        Py_CLEAR(ev->queue);  /* a late cancel() must not re-release */
        self->live -= 1;
        if (!ev->daemon)
            self->foreground -= 1;
        return (PyObject *)ev;
    }
    Py_RETURN_NONE;
}

static PyObject *
cqueue_peek_time(CQueue *self, PyObject *Py_UNUSED(ignored))
{
    while (self->size > 0 && self->heap[0].ev->cancelled) {
        HeapEntry top = cq_pop_top(self);
        Py_DECREF(top.ev);
    }
    if (self->size > 0)
        return PyFloat_FromDouble(self->heap[0].time);
    Py_RETURN_NONE;
}

static PyObject *
cqueue_get_foreground(CQueue *self, void *closure)
{
    return PyLong_FromSsize_t(self->foreground);
}

static PyObject *
cqueue_get_heap_len(CQueue *self, void *closure)
{
    /* Raw heap entries including lingering cancelled ones — what the
     * python loop samples for the sim.queue_depth gauge. */
    return PyLong_FromSsize_t(self->size);
}

static PyGetSetDef cqueue_getset[] = {
    {"foreground_count", (getter)cqueue_get_foreground, NULL,
     "Pending non-daemon events (exact: cancel releases eagerly).", NULL},
    {"heap_len", (getter)cqueue_get_heap_len, NULL,
     "Raw heap length including lingering cancelled entries.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMethodDef cqueue_methods[] = {
    {"push", (PyCFunction)(void (*)(void))cqueue_push,
     METH_FASTCALL | METH_KEYWORDS, "push(time, fn, args=(), daemon=False)"},
    {"pop", (PyCFunction)cqueue_pop, METH_NOARGS,
     "Pop the earliest non-cancelled event, or None."},
    {"peek_time", (PyCFunction)cqueue_peek_time, METH_NOARGS,
     "Fire time of the earliest pending event, or None."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods cqueue_as_sequence = {
    .sq_length = (lenfunc)cqueue_len,
};

static PyTypeObject CQueue_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.EventQueue",
    .tp_basicsize = sizeof(CQueue),
    .tp_dealloc = (destructor)cqueue_dealloc,
    .tp_as_sequence = &cqueue_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Time-ordered event queue (compiled kernel).",
    .tp_traverse = (traverseproc)cqueue_traverse,
    .tp_clear = (inquiry)cqueue_clear,
    .tp_methods = cqueue_methods,
    .tp_getset = cqueue_getset,
    .tp_new = cqueue_new,
};

/* ------------------------------------------------------------------ */
/* SimulatorBase                                                       */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    double now;
    PyObject *seed;   /* arbitrary int: sim.rng.derive_seed is full 64-bit */
    long long events_processed;
    char running;
    char stopped;
    PyObject *rng;
    PyObject *tracer;
    PyObject *metrics;
    CQueue *queue;
} CSim;

static PyTypeObject CSim_Type;

static int
csim_traverse(CSim *self, visitproc visit, void *arg)
{
    Py_VISIT(self->seed);
    Py_VISIT(self->rng);
    Py_VISIT(self->tracer);
    Py_VISIT(self->metrics);
    Py_VISIT(self->queue);
    return 0;
}

static int
csim_clear_gc(CSim *self)
{
    Py_CLEAR(self->seed);
    Py_CLEAR(self->rng);
    Py_CLEAR(self->tracer);
    Py_CLEAR(self->metrics);
    Py_CLEAR(self->queue);
    return 0;
}

static void
csim_dealloc(CSim *self)
{
    PyObject_GC_UnTrack(self);
    csim_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
csim_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    CSim *self = (CSim *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->now = 0.0;
    self->events_processed = 0;
    self->running = self->stopped = 0;
    self->seed = NULL;
    self->rng = self->tracer = self->metrics = NULL;
    self->queue = NULL;
    return (PyObject *)self;
}

static int
csim_init(CSim *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"seed", "rng", "tracer", "metrics", NULL};
    PyObject *seed, *rng, *tracer, *metrics;
    CQueue *queue;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOO", kwlist,
                                     &seed, &rng, &tracer, &metrics))
        return -1;
    queue = (CQueue *)cqueue_new(&CQueue_Type, NULL, NULL);
    if (queue == NULL)
        return -1;
    self->now = 0.0;
    Py_INCREF(seed);
    Py_XSETREF(self->seed, seed);
    self->events_processed = 0;
    self->running = self->stopped = 0;
    Py_INCREF(rng);
    Py_XSETREF(self->rng, rng);
    Py_INCREF(tracer);
    Py_XSETREF(self->tracer, tracer);
    Py_INCREF(metrics);
    Py_XSETREF(self->metrics, metrics);
    Py_XSETREF(self->queue, queue);
    return 0;
}

static inline int
attr_is_true(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    int r;
    if (v == NULL)
        return -1;
    r = PyObject_IsTrue(v);
    Py_DECREF(v);
    return r;
}

/* schedule/schedule_at/call_soon/schedule_daemon ------------------- */

/* A subclass that skips SimulatorBase.__init__ (or whose __init__
 * failed) has no queue; every entry point checks rather than segfault. */
static int
csim_check_ready(CSim *self)
{
    if (self->queue == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "simulator is not initialized "
                        "(SimulatorBase.__init__ was not called)");
        return -1;
    }
    return 0;
}

static PyObject *
csim_schedule_common(CSim *self, PyObject *const *args, Py_ssize_t nargs,
                     int absolute, int daemon, const char *name)
{
    double when;
    PyObject *fn, *argtuple, *result;
    Py_ssize_t i, extra;
    if (csim_check_ready(self) < 0)
        return NULL;
    if (nargs < 2) {
        PyErr_Format(PyExc_TypeError, "%s(delay, fn, *args)", name);
        return NULL;
    }
    when = PyFloat_AsDouble(args[0]);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    if (absolute) {
        if (when < self->now) {
            PyObject *now_obj = PyFloat_FromDouble(self->now);
            if (now_obj != NULL) {
                PyErr_Format(PyExc_ValueError,
                             "cannot schedule in the past: %S < %S",
                             args[0], now_obj);
                Py_DECREF(now_obj);
            }
            return NULL;
        }
    }
    else {
        if (when < 0.0)
            return PyErr_Format(PyExc_ValueError, "negative delay %R", args[0]);
        when = self->now + when;
    }
    fn = args[1];
    extra = nargs - 2;
    if (extra == 0) {
        argtuple = empty_tuple;
        Py_INCREF(argtuple);
    }
    else {
        argtuple = PyTuple_New(extra);
        if (argtuple == NULL)
            return NULL;
        for (i = 0; i < extra; i++) {
            Py_INCREF(args[2 + i]);
            PyTuple_SET_ITEM(argtuple, i, args[2 + i]);
        }
    }
    result = (PyObject *)cq_push_internal(self->queue, when, fn, argtuple, daemon);
    Py_DECREF(argtuple);
    return result;
}

static PyObject *
csim_schedule(CSim *self, PyObject *const *args, Py_ssize_t nargs)
{
    return csim_schedule_common(self, args, nargs, 0, 0, "schedule");
}

static PyObject *
csim_schedule_at(CSim *self, PyObject *const *args, Py_ssize_t nargs)
{
    return csim_schedule_common(self, args, nargs, 1, 0, "schedule_at");
}

static PyObject *
csim_schedule_daemon(CSim *self, PyObject *const *args, Py_ssize_t nargs)
{
    return csim_schedule_common(self, args, nargs, 0, 1, "schedule_daemon");
}

static PyObject *
csim_call_soon(CSim *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *fn, *argtuple, *result;
    Py_ssize_t i, extra;
    if (csim_check_ready(self) < 0)
        return NULL;
    if (nargs < 1) {
        PyErr_SetString(PyExc_TypeError, "call_soon(fn, *args)");
        return NULL;
    }
    fn = args[0];
    extra = nargs - 1;
    if (extra == 0) {
        argtuple = empty_tuple;
        Py_INCREF(argtuple);
    }
    else {
        argtuple = PyTuple_New(extra);
        if (argtuple == NULL)
            return NULL;
        for (i = 0; i < extra; i++) {
            Py_INCREF(args[1 + i]);
            PyTuple_SET_ITEM(argtuple, i, args[1 + i]);
        }
    }
    result = (PyObject *)cq_push_internal(self->queue, self->now, fn, argtuple, 0);
    Py_DECREF(argtuple);
    return result;
}

/* step ------------------------------------------------------------- */

static PyObject *
csim_observe_dispatch(CSim *self, CEvent *ev)
{
    return PyObject_CallMethodOneArg((PyObject *)self, str__observe_dispatch,
                                     (PyObject *)ev);
}

static PyObject *
csim_step(CSim *self, PyObject *Py_UNUSED(ignored))
{
    CQueue *q = self->queue;
    CEvent *ev = NULL;
    PyObject *r;
    int m_on, t_on;
    if (csim_check_ready(self) < 0)
        return NULL;
    while (q->size > 0) {
        HeapEntry top = cq_pop_top(q);
        if (top.ev->cancelled) {
            Py_DECREF(top.ev);
            continue;
        }
        ev = top.ev;
        break;
    }
    if (ev == NULL)
        Py_RETURN_FALSE;
    Py_CLEAR(ev->queue);
    q->live -= 1;
    if (!ev->daemon)
        q->foreground -= 1;
    self->now = ev->time;
    self->events_processed += 1;
    m_on = attr_is_true(self->metrics, str_enabled);
    if (m_on < 0)
        goto error;
    t_on = m_on ? 0 : attr_is_true(self->tracer, str_wants_sim);
    if (t_on < 0)
        goto error;
    if (m_on || t_on) {
        r = csim_observe_dispatch(self, ev);
        if (r == NULL)
            goto error;
        Py_DECREF(r);
    }
    r = PyObject_Call(ev->fn, ev->args, NULL);
    if (r == NULL)
        goto error;
    Py_DECREF(r);
    Py_DECREF(ev);
    Py_RETURN_TRUE;
error:
    Py_DECREF(ev);
    return NULL;
}

/* run -------------------------------------------------------------- */

/* Flush the batched-metrics locals; preserves any in-flight exception. */
static void
csim_flush_batched(CSim *self, long long dispatched, Py_ssize_t depth_hw)
{
    PyObject *exc_type, *exc_value, *exc_tb, *r, *arg1, *arg2;
    if (dispatched == 0)
        return;
    self->events_processed += dispatched;
    PyErr_Fetch(&exc_type, &exc_value, &exc_tb);
    arg1 = PyLong_FromLongLong(dispatched);
    if (arg1 != NULL) {
        r = PyObject_CallMethodObjArgs(self->metrics, str_inc,
                                       str_sim_events, arg1, NULL);
        Py_XDECREF(r);
        if (r == NULL)
            PyErr_Clear();
        Py_DECREF(arg1);
    }
    else
        PyErr_Clear();
    arg2 = PyFloat_FromDouble((double)depth_hw);
    if (arg2 != NULL) {
        r = PyObject_CallMethodObjArgs(self->metrics, str_max_gauge,
                                       str_sim_queue_depth, arg2, NULL);
        Py_XDECREF(r);
        if (r == NULL)
            PyErr_Clear();
        Py_DECREF(arg2);
    }
    else
        PyErr_Clear();
    PyErr_Restore(exc_type, exc_value, exc_tb);
}

/* The finally clause shared by every run() exit: clear the running flag
 * and record the simulated horizon gauge.  Preserves a pending error. */
static void
csim_run_finally(CSim *self)
{
    PyObject *exc_type, *exc_value, *exc_tb;
    PyObject *metrics = self->metrics;
    int m_on;
    self->running = 0;
    PyErr_Fetch(&exc_type, &exc_value, &exc_tb);
    m_on = attr_is_true(metrics, str_enabled);
    if (m_on < 0)
        PyErr_Clear();
    else if (m_on) {
        PyObject *pid = PyObject_GetAttr(self->tracer, str_pid);
        if (pid == NULL)
            PyErr_Clear();
        else {
            PyObject *meth = PyObject_GetAttr(metrics, str_max_gauge);
            if (meth == NULL)
                PyErr_Clear();
            else {
                PyObject *cargs = Py_BuildValue("(Od)", str_sim_now_ms, self->now);
                PyObject *kwargs = PyDict_New();
                if (cargs != NULL && kwargs != NULL &&
                    PyDict_SetItem(kwargs, str_kwarg_pid, pid) == 0) {
                    PyObject *r = PyObject_Call(meth, cargs, kwargs);
                    Py_XDECREF(r);
                    if (r == NULL)
                        PyErr_Clear();
                }
                else
                    PyErr_Clear();
                Py_XDECREF(cargs);
                Py_XDECREF(kwargs);
                Py_DECREF(meth);
            }
            Py_DECREF(pid);
        }
    }
    PyErr_Restore(exc_type, exc_value, exc_tb);
}

static PyObject *
csim_run(CSim *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_obj = Py_None, *max_obj = Py_None;
    int has_until = 0, has_max = 0;
    double until = 0.0;
    long long max_events = 0, fired = 0;
    CQueue *q;
    PyObject *tracer, *metrics;
    int m_on, t_on;
    int err = 0;

    if (csim_check_ready(self) < 0)
        return NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO", kwlist,
                                     &until_obj, &max_obj))
        return NULL;
    if (until_obj != Py_None) {
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
        has_until = 1;
    }
    if (max_obj != Py_None) {
        max_events = PyLong_AsLongLong(max_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
        has_max = 1;
    }

    self->running = 1;
    self->stopped = 0;
    q = self->queue;
    tracer = self->tracer;
    metrics = self->metrics;
    m_on = attr_is_true(metrics, str_enabled);
    if (m_on < 0) {
        err = 1;
        goto done;
    }
    t_on = attr_is_true(tracer, str_wants_sim);
    if (t_on < 0) {
        err = 1;
        goto done;
    }

    if (!has_until && !has_max) {
        if (!m_on && !t_on) {
            /* Unbounded quiet drain: the overwhelmingly common call. */
            while (q->size > 0 && q->foreground != 0 && !self->stopped) {
                HeapEntry top = cq_pop_top(q);
                CEvent *ev = top.ev;
                PyObject *r;
                if (ev->cancelled) {
                    Py_DECREF(ev);
                    continue;
                }
                Py_CLEAR(ev->queue);
                q->live -= 1;
                if (!ev->daemon)
                    q->foreground -= 1;
                self->now = top.time;
                self->events_processed += 1;
                r = PyObject_Call(ev->fn, ev->args, NULL);
                Py_DECREF(ev);
                if (r == NULL) {
                    err = 1;
                    break;
                }
                Py_DECREF(r);
            }
        }
        else {
            int batched;
            PyObject *mt = PyObject_GetAttr(metrics, str__tracer);
            if (mt == NULL) {
                err = 1;
                goto done;
            }
            batched = (m_on && !t_on && mt == Py_None);
            Py_DECREF(mt);
            if (batched) {
                /* Metrics on, nothing mirrors increments into a trace
                 * stream: accumulate locally, flush once (counts sum,
                 * max is associative — final values identical). */
                long long dispatched = 0;
                Py_ssize_t depth_hw = 0;
                while (q->size > 0 && q->foreground != 0 && !self->stopped) {
                    HeapEntry top = cq_pop_top(q);
                    CEvent *ev = top.ev;
                    PyObject *r;
                    if (ev->cancelled) {
                        Py_DECREF(ev);
                        continue;
                    }
                    Py_CLEAR(ev->queue);
                    q->live -= 1;
                    if (!ev->daemon)
                        q->foreground -= 1;
                    self->now = top.time;
                    dispatched += 1;
                    if (q->size > depth_hw)
                        depth_hw = q->size;
                    r = PyObject_Call(ev->fn, ev->args, NULL);
                    Py_DECREF(ev);
                    if (r == NULL) {
                        err = 1;
                        break;
                    }
                    Py_DECREF(r);
                }
                csim_flush_batched(self, dispatched, depth_hw);
            }
            else {
                /* Observed drain: per-event metrics/trace emission. */
                while (q->size > 0 && q->foreground != 0 && !self->stopped) {
                    HeapEntry top = cq_pop_top(q);
                    CEvent *ev = top.ev;
                    PyObject *r;
                    if (ev->cancelled) {
                        Py_DECREF(ev);
                        continue;
                    }
                    Py_CLEAR(ev->queue);
                    q->live -= 1;
                    if (!ev->daemon)
                        q->foreground -= 1;
                    self->now = top.time;
                    self->events_processed += 1;
                    r = csim_observe_dispatch(self, ev);
                    if (r == NULL) {
                        Py_DECREF(ev);
                        err = 1;
                        break;
                    }
                    Py_DECREF(r);
                    r = PyObject_Call(ev->fn, ev->args, NULL);
                    Py_DECREF(ev);
                    if (r == NULL) {
                        err = 1;
                        break;
                    }
                    Py_DECREF(r);
                }
            }
        }
    }
    else {
        /* Bounded drain: horizon and/or event budget. */
        while (!self->stopped) {
            HeapEntry top;
            CEvent *ev;
            PyObject *r;
            double next_time;
            if (has_max && fired >= max_events)
                break;
            while (q->size > 0 && q->heap[0].ev->cancelled) {
                HeapEntry dead = cq_pop_top(q);
                Py_DECREF(dead.ev);
            }
            if (q->size == 0)
                break;
            next_time = q->heap[0].time;
            if (has_until && next_time > until)
                break;
            if (!has_until && q->foreground == 0)
                break;  /* only background daemons remain: drained */
            top = cq_pop_top(q);
            ev = top.ev;
            Py_CLEAR(ev->queue);
            q->live -= 1;
            if (!ev->daemon)
                q->foreground -= 1;
            self->now = next_time;
            self->events_processed += 1;
            m_on = attr_is_true(metrics, str_enabled);
            if (m_on < 0) {
                Py_DECREF(ev);
                err = 1;
                break;
            }
            t_on = m_on ? 0 : attr_is_true(tracer, str_wants_sim);
            if (t_on < 0) {
                Py_DECREF(ev);
                err = 1;
                break;
            }
            if (m_on || t_on) {
                r = csim_observe_dispatch(self, ev);
                if (r == NULL) {
                    Py_DECREF(ev);
                    err = 1;
                    break;
                }
                Py_DECREF(r);
            }
            r = PyObject_Call(ev->fn, ev->args, NULL);
            Py_DECREF(ev);
            if (r == NULL) {
                err = 1;
                break;
            }
            Py_DECREF(r);
            fired += 1;
        }
    }

done:
    csim_run_finally(self);
    if (err)
        return NULL;
    if (has_until && self->now < until && !self->stopped)
        self->now = until;
    Py_RETURN_NONE;
}

static PyObject *
csim_stop(CSim *self, PyObject *Py_UNUSED(ignored))
{
    self->stopped = 1;
    Py_RETURN_NONE;
}

static PyObject *
csim_get_pending(CSim *self, void *closure)
{
    if (csim_check_ready(self) < 0)
        return NULL;
    return PyLong_FromSsize_t(self->queue->live);
}

static PyObject *
csim_get_foreground(CSim *self, void *closure)
{
    if (csim_check_ready(self) < 0)
        return NULL;
    return PyLong_FromSsize_t(self->queue->foreground);
}

static PyObject *
csim_get_events_processed(CSim *self, void *closure)
{
    return PyLong_FromLongLong(self->events_processed);
}

static PyObject *
csim_get_running(CSim *self, void *closure)
{
    return PyBool_FromLong(self->running);
}

static PyObject *
csim_get_stopped(CSim *self, void *closure)
{
    return PyBool_FromLong(self->stopped);
}

static PyGetSetDef csim_getset[] = {
    {"pending_events", (getter)csim_get_pending, NULL, NULL, NULL},
    {"foreground_pending", (getter)csim_get_foreground, NULL,
     "Pending non-daemon events (what keeps run() alive).", NULL},
    {"events_processed", (getter)csim_get_events_processed, NULL, NULL, NULL},
    {"_events_processed", (getter)csim_get_events_processed, NULL, NULL, NULL},
    {"_running", (getter)csim_get_running, NULL, NULL, NULL},
    {"_stopped", (getter)csim_get_stopped, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef csim_members[] = {
    {"now", T_DOUBLE, offsetof(CSim, now), 0, "Current simulated time (ms)."},
    {"seed", T_OBJECT_EX, offsetof(CSim, seed), READONLY, NULL},
    {"rng", T_OBJECT_EX, offsetof(CSim, rng), 0, NULL},
    {"tracer", T_OBJECT_EX, offsetof(CSim, tracer), 0, NULL},
    {"metrics", T_OBJECT_EX, offsetof(CSim, metrics), 0, NULL},
    {"_queue", T_OBJECT_EX, offsetof(CSim, queue), READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyMethodDef csim_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))csim_schedule, METH_FASTCALL,
     "schedule(delay, fn, *args) -> Event"},
    {"schedule_at", (PyCFunction)(void (*)(void))csim_schedule_at, METH_FASTCALL,
     "schedule_at(time, fn, *args) -> Event"},
    {"call_soon", (PyCFunction)(void (*)(void))csim_call_soon, METH_FASTCALL,
     "call_soon(fn, *args) -> Event"},
    {"schedule_daemon", (PyCFunction)(void (*)(void))csim_schedule_daemon,
     METH_FASTCALL, "schedule_daemon(delay, fn, *args) -> Event"},
    {"step", (PyCFunction)csim_step, METH_NOARGS,
     "Run the next event; False when the queue is empty."},
    {"run", (PyCFunction)(void (*)(void))csim_run,
     METH_VARARGS | METH_KEYWORDS,
     "run(until=None, max_events=None): drain the queue in time order."},
    {"stop", (PyCFunction)csim_stop, METH_NOARGS,
     "Stop run() after the current event finishes."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CSim_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.SimulatorBase",
    .tp_basicsize = sizeof(CSim),
    .tp_dealloc = (destructor)csim_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled deterministic discrete-event simulator core.",
    .tp_traverse = (traverseproc)csim_traverse,
    .tp_clear = (inquiry)csim_clear_gc,
    .tp_methods = csim_methods,
    .tp_members = csim_members,
    .tp_getset = csim_getset,
    .tp_init = (initproc)csim_init,
    .tp_new = csim_new,
};

/* ------------------------------------------------------------------ */
/* DispatchWorkload: the MK microbenchmark's actors, compiled.         */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    CSim *sim;              /* strong */
    PyObject *getrandbits;  /* bound rng.getrandbits */
    PyObject *victim;       /* the shared victim callable */
    long long mod;
    long long cancel_every;
    long long fired;
    long long cancelled;
    long long daemon_ticks;
    long long checksum;
} CWorkload;

typedef struct {
    PyObject_HEAD
    CWorkload *w;
    long long index;
    long long remaining;
} CActor;

typedef struct {
    PyObject_HEAD
    CWorkload *w;
} CTick;  /* victim and heartbeat share this layout */

static PyTypeObject CWorkload_Type;
static PyTypeObject CActor_Type;
static PyTypeObject CVictim_Type;
static PyTypeObject CHeartbeat_Type;

/* random.Random.randrange(0, 8) == _randbelow_with_getrandbits(8):
 * k = (8).bit_length() = 4; draw getrandbits(4); reject while r >= 8.
 * Replicated exactly so the compiled workload consumes the Mersenne
 * stream bit-for-bit like the interpreted one. */
static long
crand_below8(CWorkload *w)
{
    for (;;) {
        long v;
        PyObject *r = PyObject_CallOneArg(w->getrandbits, int_four);
        if (r == NULL)
            return -1;
        v = PyLong_AsLong(r);
        Py_DECREF(r);
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (v < 8)
            return v;
    }
}

/* victim() — scheduled then immediately cancelled; never fires in a
 * correct kernel, but the checksum fold is implemented for parity. */
static PyObject *
cvictim_call(CTick *self, PyObject *args, PyObject *kwds)
{
    CWorkload *w = self->w;
    w->checksum = (w->checksum * 31 + 999983) % w->mod;
    Py_RETURN_NONE;
}

static PyObject *
cheartbeat_call(CTick *self, PyObject *args, PyObject *kwds)
{
    CWorkload *w = self->w;
    CEvent *ev;
    w->daemon_ticks += 1;
    ev = cq_push_internal(w->sim->queue, w->sim->now + 50.0,
                          (PyObject *)self, empty_tuple, 1);
    if (ev == NULL)
        return NULL;
    Py_DECREF(ev);
    Py_RETURN_NONE;
}

static PyObject *
cactor_call(CActor *self, PyObject *args, PyObject *kwds)
{
    CWorkload *w = self->w;
    CSim *sim = w->sim;
    CEvent *ev;
    w->fired += 1;
    w->checksum = (w->checksum * 31 + self->index
                   + (long long)(sim->now * 2.0)) % w->mod;
    if (w->fired % w->cancel_every == 0) {
        /* event = sim.schedule(1.0, victim); event.cancel() */
        ev = cq_push_internal(sim->queue, sim->now + 1.0, w->victim,
                              empty_tuple, 0);
        if (ev == NULL)
            return NULL;
        cevent_cancel_internal(ev);
        Py_DECREF(ev);
        w->cancelled += 1;
    }
    self->remaining -= 1;
    if (self->remaining > 0) {
        long r = crand_below8(w);
        if (r < 0)
            return NULL;
        ev = cq_push_internal(sim->queue, sim->now + (double)r * 0.5,
                              (PyObject *)self, empty_tuple, 0);
        if (ev == NULL)
            return NULL;
        Py_DECREF(ev);
    }
    Py_RETURN_NONE;
}

static int
cactor_traverse(CActor *self, visitproc visit, void *arg)
{
    Py_VISIT(self->w);
    return 0;
}

static int
cactor_clear(CActor *self)
{
    Py_CLEAR(self->w);
    return 0;
}

static void
cactor_dealloc(CActor *self)
{
    PyObject_GC_UnTrack(self);
    cactor_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
ctick_traverse(CTick *self, visitproc visit, void *arg)
{
    Py_VISIT(self->w);
    return 0;
}

static int
ctick_clear(CTick *self)
{
    Py_CLEAR(self->w);
    return 0;
}

static void
ctick_dealloc(CTick *self)
{
    PyObject_GC_UnTrack(self);
    ctick_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject CActor_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel._DispatchActor",
    .tp_basicsize = sizeof(CActor),
    .tp_dealloc = (destructor)cactor_dealloc,
    .tp_call = (ternaryfunc)cactor_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)cactor_traverse,
    .tp_clear = (inquiry)cactor_clear,
};

static PyTypeObject CVictim_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel._DispatchVictim",
    .tp_basicsize = sizeof(CTick),
    .tp_dealloc = (destructor)ctick_dealloc,
    .tp_call = (ternaryfunc)cvictim_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)ctick_traverse,
    .tp_clear = (inquiry)ctick_clear,
};

static PyTypeObject CHeartbeat_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel._DispatchHeartbeat",
    .tp_basicsize = sizeof(CTick),
    .tp_dealloc = (destructor)ctick_dealloc,
    .tp_call = (ternaryfunc)cheartbeat_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)ctick_traverse,
    .tp_clear = (inquiry)ctick_clear,
};

static int
cworkload_traverse(CWorkload *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->getrandbits);
    Py_VISIT(self->victim);
    return 0;
}

static int
cworkload_clear(CWorkload *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->getrandbits);
    Py_CLEAR(self->victim);
    return 0;
}

static void
cworkload_dealloc(CWorkload *self)
{
    PyObject_GC_UnTrack(self);
    cworkload_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
cworkload_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    CWorkload *self = (CWorkload *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->sim = NULL;
    self->getrandbits = NULL;
    self->victim = NULL;
    self->mod = 1000000007;
    self->cancel_every = 16;
    self->fired = self->cancelled = self->daemon_ticks = self->checksum = 0;
    return (PyObject *)self;
}

/* DispatchWorkload(sim, rng, per_actor, actors=64, cancel_every=16,
 *                  mod=1000000007): schedules the heartbeat daemon and one
 * initial event per actor — the exact python setup order, consuming the
 * rng identically. */
static int
cworkload_init(CWorkload *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"sim", "rng", "per_actor", "actors",
                             "cancel_every", "mod", NULL};
    PyObject *sim_obj, *rng_obj;
    long long per_actor, actors = 64, cancel_every = 16, mod = 1000000007;
    long long index;
    CTick *heartbeat;
    CEvent *ev;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOL|LLL", kwlist,
                                     &sim_obj, &rng_obj, &per_actor,
                                     &actors, &cancel_every, &mod))
        return -1;
    if (!PyObject_TypeCheck(sim_obj, &CSim_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "DispatchWorkload needs a compiled SimulatorBase");
        return -1;
    }
    if (csim_check_ready((CSim *)sim_obj) < 0)
        return -1;
    Py_INCREF(sim_obj);
    Py_XSETREF(self->sim, (CSim *)sim_obj);
    Py_XSETREF(self->getrandbits, PyObject_GetAttr(rng_obj, str_getrandbits));
    if (self->getrandbits == NULL)
        return -1;
    self->mod = mod;
    self->cancel_every = cancel_every;
    self->fired = self->cancelled = self->daemon_ticks = self->checksum = 0;

    {
        CTick *victim = PyObject_GC_New(CTick, &CVictim_Type);
        if (victim == NULL)
            return -1;
        Py_INCREF(self);
        victim->w = self;
        PyObject_GC_Track(victim);
        Py_XSETREF(self->victim, (PyObject *)victim);
    }

    heartbeat = PyObject_GC_New(CTick, &CHeartbeat_Type);
    if (heartbeat == NULL)
        return -1;
    Py_INCREF(self);
    heartbeat->w = self;
    PyObject_GC_Track(heartbeat);
    /* sim.schedule_daemon(50.0, heartbeat) */
    ev = cq_push_internal(self->sim->queue, self->sim->now + 50.0,
                          (PyObject *)heartbeat, empty_tuple, 1);
    Py_DECREF(heartbeat);
    if (ev == NULL)
        return -1;
    Py_DECREF(ev);

    for (index = 0; index < actors; index++) {
        CActor *actor;
        long r = crand_below8(self);
        if (r < 0)
            return -1;
        actor = PyObject_GC_New(CActor, &CActor_Type);
        if (actor == NULL)
            return -1;
        Py_INCREF(self);
        actor->w = self;
        actor->index = index;
        actor->remaining = per_actor;
        PyObject_GC_Track(actor);
        ev = cq_push_internal(self->sim->queue,
                              self->sim->now + (double)r * 0.5,
                              (PyObject *)actor, empty_tuple, 0);
        Py_DECREF(actor);
        if (ev == NULL)
            return -1;
        Py_DECREF(ev);
    }
    return 0;
}

static PyMemberDef cworkload_members[] = {
    {"fired", T_LONGLONG, offsetof(CWorkload, fired), READONLY, NULL},
    {"cancelled", T_LONGLONG, offsetof(CWorkload, cancelled), READONLY, NULL},
    {"daemon_ticks", T_LONGLONG, offsetof(CWorkload, daemon_ticks), READONLY, NULL},
    {"checksum", T_LONGLONG, offsetof(CWorkload, checksum), READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CWorkload_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.DispatchWorkload",
    .tp_basicsize = sizeof(CWorkload),
    .tp_dealloc = (destructor)cworkload_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled MK kernel-dispatch workload (actors + victim + heartbeat).",
    .tp_traverse = (traverseproc)cworkload_traverse,
    .tp_clear = (inquiry)cworkload_clear,
    .tp_members = cworkload_members,
    .tp_init = (initproc)cworkload_init,
    .tp_new = cworkload_new,
};

/* ------------------------------------------------------------------ */
/* NetSender: the quiet-path Network.send, compiled.                   */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *network;     /* repro.net.network.Network */
    CSim *sim;             /* strong; network.sim, proven compiled */
    PyObject *nodes;       /* network._nodes dict (shared, mutable) */
    PyObject *sample_ms;   /* bound latency.sample_ms */
    PyObject *rng;         /* network._rng */
    PyObject *deliver;     /* bound network._deliver */
    PyObject *fallback;    /* bound python Network.send */
    PyObject *partition_windows;  /* network.partitions._windows list */
    PyObject *loss_windows;       /* network._loss_windows list */
} CNetSender;

static PyTypeObject CNetSender_Type;

static int
cnetsender_traverse(CNetSender *self, visitproc visit, void *arg)
{
    Py_VISIT(self->network);
    Py_VISIT(self->sim);
    Py_VISIT(self->nodes);
    Py_VISIT(self->sample_ms);
    Py_VISIT(self->rng);
    Py_VISIT(self->deliver);
    Py_VISIT(self->fallback);
    Py_VISIT(self->partition_windows);
    Py_VISIT(self->loss_windows);
    return 0;
}

static int
cnetsender_clear(CNetSender *self)
{
    Py_CLEAR(self->network);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->nodes);
    Py_CLEAR(self->sample_ms);
    Py_CLEAR(self->rng);
    Py_CLEAR(self->deliver);
    Py_CLEAR(self->fallback);
    Py_CLEAR(self->partition_windows);
    Py_CLEAR(self->loss_windows);
    return 0;
}

static void
cnetsender_dealloc(CNetSender *self)
{
    PyObject_GC_UnTrack(self);
    cnetsender_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
cnetsender_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    CNetSender *self = (CNetSender *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->network = NULL;
    self->sim = NULL;
    self->nodes = self->sample_ms = self->rng = NULL;
    self->deliver = self->fallback = NULL;
    self->partition_windows = self->loss_windows = NULL;
    return (PyObject *)self;
}

static PyObject *
grab_attr(PyObject *obj, const char *name)
{
    return PyObject_GetAttrString(obj, name);
}

static int
cnetsender_init(CNetSender *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"network", "fallback", NULL};
    PyObject *network, *fallback, *sim, *latency, *partitions;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO", kwlist,
                                     &network, &fallback))
        return -1;
    sim = grab_attr(network, "sim");
    if (sim == NULL)
        return -1;
    if (!PyObject_TypeCheck(sim, &CSim_Type)) {
        Py_DECREF(sim);
        PyErr_SetString(PyExc_TypeError,
                        "NetSender needs a compiled SimulatorBase network.sim");
        return -1;
    }
    if (csim_check_ready((CSim *)sim) < 0) {
        Py_DECREF(sim);
        return -1;
    }
    Py_INCREF(network);
    Py_XSETREF(self->network, network);
    Py_XSETREF(self->sim, (CSim *)sim);
    Py_INCREF(fallback);
    Py_XSETREF(self->fallback, fallback);
    Py_XSETREF(self->nodes, grab_attr(network, "_nodes"));
    if (self->nodes == NULL || !PyDict_Check(self->nodes))
        goto fail;
    latency = grab_attr(network, "latency");
    if (latency == NULL)
        goto fail;
    Py_XSETREF(self->sample_ms, grab_attr(latency, "sample_ms"));
    Py_DECREF(latency);
    if (self->sample_ms == NULL)
        goto fail;
    Py_XSETREF(self->rng, grab_attr(network, "_rng"));
    if (self->rng == NULL)
        goto fail;
    Py_XSETREF(self->deliver, grab_attr(network, "_deliver"));
    if (self->deliver == NULL)
        goto fail;
    partitions = grab_attr(network, "partitions");
    if (partitions == NULL)
        goto fail;
    Py_XSETREF(self->partition_windows, grab_attr(partitions, "_windows"));
    Py_DECREF(partitions);
    if (self->partition_windows == NULL || !PyList_Check(self->partition_windows))
        goto fail;
    Py_XSETREF(self->loss_windows, grab_attr(network, "_loss_windows"));
    if (self->loss_windows == NULL || !PyList_Check(self->loss_windows))
        goto fail;
    return 0;
fail:
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_TypeError, "NetSender: unexpected Network layout");
    return -1;
}

/* send(sender_id, recipient_id, message) — handles the fully-quiet path
 * (no metrics, no message tracing, no partitions, no loss) entirely in C; any
 * instrumentation or fault injection delegates to the python
 * Network.send, which performs the identical observable operations. */
static PyObject *
cnetsender_call(CNetSender *self, PyObject *args, PyObject *kwds)
{
    PyObject *sid, *rid, *message;
    PyObject *sender, *recipient, *sent_at, *count, *newcount;
    PyObject *src_dc, *dst_dc, *now_obj, *delay_obj, *dargs;
    CSim *sim = self->sim;
    CEvent *ev;
    double now, delay, loss;
    int quiet;
    PyObject *lp;

    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "send() takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, "send", 3, 3, &sid, &rid, &message))
        return NULL;

    /* Fast-path eligibility: everything observable must be off (a tracer
     * whose sinks want no "message" records observes nothing here). */
    quiet = 1;
    {
        int m_on = attr_is_true(sim->metrics, str_enabled);
        if (m_on < 0)
            return NULL;
        if (m_on)
            quiet = 0;
        else {
            int t_on = attr_is_true(sim->tracer, str_wants_message);
            if (t_on < 0)
                return NULL;
            if (t_on)
                quiet = 0;
        }
    }
    if (quiet && PyList_GET_SIZE(self->partition_windows) != 0)
        quiet = 0;
    if (quiet && PyList_GET_SIZE(self->loss_windows) != 0)
        quiet = 0;
    if (quiet) {
        lp = PyObject_GetAttr(self->network, str_loss_probability);
        if (lp == NULL)
            return NULL;
        loss = PyFloat_AsDouble(lp);
        Py_DECREF(lp);
        if (loss == -1.0 && PyErr_Occurred())
            return NULL;
        if (loss > 0.0)
            quiet = 0;
    }
    if (!quiet)
        return PyObject_Call(self->fallback, args, NULL);

    now = sim->now;
    sender = PyDict_GetItemWithError(self->nodes, sid);
    if (sender == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, sid);
        return NULL;
    }
    recipient = PyDict_GetItemWithError(self->nodes, rid);
    if (recipient == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, rid);
        return NULL;
    }
    if (PyObject_SetAttr(message, str_sender, sid) < 0)
        return NULL;
    if (PyObject_SetAttr(message, str_recipient, rid) < 0)
        return NULL;
    sent_at = PyFloat_FromDouble(now);
    if (sent_at == NULL)
        return NULL;
    if (PyObject_SetAttr(message, str_sent_at, sent_at) < 0) {
        Py_DECREF(sent_at);
        return NULL;
    }
    Py_DECREF(sent_at);
    count = PyObject_GetAttr(self->network, str_messages_sent);
    if (count == NULL)
        return NULL;
    newcount = PyNumber_Add(count, int_one);
    Py_DECREF(count);
    if (newcount == NULL)
        return NULL;
    if (PyObject_SetAttr(self->network, str_messages_sent, newcount) < 0) {
        Py_DECREF(newcount);
        return NULL;
    }
    Py_DECREF(newcount);

    src_dc = PyObject_GetAttr(sender, str_datacenter);
    if (src_dc == NULL)
        return NULL;
    dst_dc = PyObject_GetAttr(recipient, str_datacenter);
    if (dst_dc == NULL) {
        Py_DECREF(src_dc);
        return NULL;
    }
    now_obj = PyFloat_FromDouble(now);
    if (now_obj == NULL) {
        Py_DECREF(src_dc);
        Py_DECREF(dst_dc);
        return NULL;
    }
    delay_obj = PyObject_CallFunctionObjArgs(self->sample_ms, src_dc, dst_dc,
                                             now_obj, self->rng, NULL);
    Py_DECREF(src_dc);
    Py_DECREF(dst_dc);
    Py_DECREF(now_obj);
    if (delay_obj == NULL)
        return NULL;
    delay = PyFloat_AsDouble(delay_obj);
    Py_DECREF(delay_obj);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;

    dargs = PyTuple_Pack(2, rid, message);
    if (dargs == NULL)
        return NULL;
    ev = cq_push_internal(sim->queue, now + delay, self->deliver, dargs, 0);
    Py_DECREF(dargs);
    if (ev == NULL)
        return NULL;
    Py_DECREF(ev);
    Py_RETURN_NONE;
}

static PyTypeObject CNetSender_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.NetSender",
    .tp_basicsize = sizeof(CNetSender),
    .tp_dealloc = (destructor)cnetsender_dealloc,
    .tp_call = (ternaryfunc)cnetsender_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled quiet-path Network.send (falls back when instrumented).",
    .tp_traverse = (traverseproc)cnetsender_traverse,
    .tp_clear = (inquiry)cnetsender_clear,
    .tp_init = (initproc)cnetsender_init,
    .tp_new = cnetsender_new,
};

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._ckernel",
    .m_doc = "Compiled simulator kernel (optional; see repro.engine).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    PyObject *m;

    str_enabled = PyUnicode_InternFromString("enabled");
    str_wants_sim = PyUnicode_InternFromString("wants_sim");
    str_wants_message = PyUnicode_InternFromString("wants_message");
    str__tracer = PyUnicode_InternFromString("_tracer");
    str_pid = PyUnicode_InternFromString("pid");
    str_kwarg_pid = PyUnicode_InternFromString("pid");
    str_inc = PyUnicode_InternFromString("inc");
    str_max_gauge = PyUnicode_InternFromString("max_gauge");
    str_sim_events = PyUnicode_InternFromString("sim.events");
    str_sim_queue_depth = PyUnicode_InternFromString("sim.queue_depth");
    str_sim_now_ms = PyUnicode_InternFromString("sim.now_ms");
    str__observe_dispatch = PyUnicode_InternFromString("_observe_dispatch");
    str_getrandbits = PyUnicode_InternFromString("getrandbits");
    str_messages_sent = PyUnicode_InternFromString("messages_sent");
    str_sender = PyUnicode_InternFromString("sender");
    str_recipient = PyUnicode_InternFromString("recipient");
    str_sent_at = PyUnicode_InternFromString("sent_at");
    str_datacenter = PyUnicode_InternFromString("datacenter");
    str_loss_probability = PyUnicode_InternFromString("loss_probability");
    if (str_enabled == NULL || str_wants_sim == NULL ||
        str_wants_message == NULL || str__tracer == NULL || str_pid == NULL ||
        str_kwarg_pid == NULL || str_inc == NULL || str_max_gauge == NULL ||
        str_sim_events == NULL || str_sim_queue_depth == NULL ||
        str_sim_now_ms == NULL || str__observe_dispatch == NULL ||
        str_getrandbits == NULL || str_messages_sent == NULL ||
        str_sender == NULL || str_recipient == NULL || str_sent_at == NULL ||
        str_datacenter == NULL || str_loss_probability == NULL)
        return NULL;
    empty_tuple = PyTuple_New(0);
    if (empty_tuple == NULL)
        return NULL;
    int_four = PyLong_FromLong(4);
    if (int_four == NULL)
        return NULL;
    int_one = PyLong_FromLong(1);
    if (int_one == NULL)
        return NULL;

    if (PyType_Ready(&CEvent_Type) < 0 || PyType_Ready(&CQueue_Type) < 0 ||
        PyType_Ready(&CSim_Type) < 0 || PyType_Ready(&CWorkload_Type) < 0 ||
        PyType_Ready(&CActor_Type) < 0 || PyType_Ready(&CVictim_Type) < 0 ||
        PyType_Ready(&CHeartbeat_Type) < 0 ||
        PyType_Ready(&CNetSender_Type) < 0)
        return NULL;

    m = PyModule_Create(&ckernel_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&CEvent_Type);
    PyModule_AddObject(m, "Event", (PyObject *)&CEvent_Type);
    Py_INCREF(&CQueue_Type);
    PyModule_AddObject(m, "EventQueue", (PyObject *)&CQueue_Type);
    Py_INCREF(&CSim_Type);
    PyModule_AddObject(m, "SimulatorBase", (PyObject *)&CSim_Type);
    Py_INCREF(&CWorkload_Type);
    PyModule_AddObject(m, "DispatchWorkload", (PyObject *)&CWorkload_Type);
    Py_INCREF(&CNetSender_Type);
    PyModule_AddObject(m, "NetSender", (PyObject *)&CNetSender_Type);
    PyModule_AddIntConstant(m, "ABI_VERSION", CKERNEL_ABI);
    return m;
}
