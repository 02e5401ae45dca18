package constructs.records;

import java.util.Objects;

/** A record with a compact canonical constructor, another constructor and members (JLS 8.10). */
public record Point<T extends Number>(T x, T y) implements Comparable<Point<T>> {
    static final Point<Integer> ORIGIN = new Point<>(0, 0);

    public Point {
        Objects.requireNonNull(x);
        if (y == null) throw new IllegalArgumentException("y");
    }

    public Point(T both) {
        this(both, both);
    }

    public static <N extends Number> Point<N> of(N x, N y) {
        return new Point<>(x, y);
    }

    @Override
    public int compareTo(Point<T> other) {
        return Double.compare(x.doubleValue(), other.x().doubleValue());
    }
}
